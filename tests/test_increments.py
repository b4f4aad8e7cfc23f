import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maplab.chain_core import StochasticKernel
from maplab.errors import MomentUndefined
from maplab.increments import deterministic, gaussian, mixture
from maplab.map_model import MapSpec, variance_series

from conftest import (per_kind_cf, per_kind_mean, per_kind_moment,
                      per_kind_variance_series, random_mixed_spec)


class TestCharacteristicFunctions:
    def test_deterministic(self):
        law = deterministic([2.0])
        z = 0.7
        assert law.cf(z) == pytest.approx(np.exp(1j * z * 2.0))

    def test_gaussian(self):
        law = gaussian([1.0], [[4.0]])
        z = 0.3
        assert law.cf(z) == pytest.approx(np.exp(1j * z - 2.0 * z * z))

    def test_mixture(self):
        law = mixture([(0.25, [0.0]), (0.75, [2.0])])
        z = 1.1
        assert law.cf(z) == pytest.approx(0.25 + 0.75 * np.exp(2.2j))

    def test_cf_at_zero_is_one(self):
        for law in (deterministic([3.0]), gaussian([0.0], [[1.0]]),
                    mixture([(0.5, [1.0]), (0.5, [-1.0])])):
            assert law.cf(0.0) == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5, 5), st.floats(-3, 3), st.floats(0.01, 4.0))
    def test_cf_modulus_bounded(self, z, m, s2):
        assert abs(gaussian([m], [[s2]]).cf(z)) <= 1.0 + 1e-12


class TestMoments:
    def test_gaussian_raw_moments(self):
        m, s2 = 0.7, 1.3
        law = gaussian([m], [[s2]])
        assert law.moment(1) == pytest.approx(m)
        assert law.moment(2) == pytest.approx(m * m + s2)
        assert law.moment(3) == pytest.approx(m ** 3 + 3 * m * s2)
        assert law.moment(4) == pytest.approx(m ** 4 + 6 * m * m * s2 + 3 * s2 * s2)

    def test_mixture_moments(self):
        law = mixture([(0.5, [-1.0]), (0.5, [3.0])])
        assert law.moment(1) == pytest.approx(1.0)
        assert law.moment(2) == pytest.approx(5.0)
        assert law.moment(3) == pytest.approx(13.0)

    def test_order_five_rejected(self):
        with pytest.raises(MomentUndefined):
            deterministic([1.0]).moment(5)

    def test_point_mass_square_correctly_rounded(self):
        # v * v is the correctly rounded square; pow(v, 2), which point
        # masses used before they were read as atoms, is off by an ulp here
        from fractions import Fraction
        v = 2.759
        assert v ** 2 != v * v
        assert v * v == float(Fraction(v) ** 2)
        for law in (deterministic([v]), mixture([(1.0, [v])]),
                    gaussian([v], [[0.0]])):
            assert law.moment(2) == v * v


def _one_edge(law, centered=False):
    """The 1-state spec whose one edge has law."""
    kernel = StochasticKernel(states=(0,), P=np.array([[1.0]]))
    return MapSpec(kernel=kernel, increments={(0, 0): law}, d=law.d,
                   centered=centered)


def _centered(law):
    """law shifted by minus its mean: the one law of a centered 1-state
    spec, read back from the spec's atom table."""
    return _one_edge(law, centered=True).increments[(0, 0)]


def _vectors(d):
    return st.lists(st.floats(-10, 10), min_size=d, max_size=d)


@st.composite
def constructed_laws(draw, d):
    """A law of any kind in dimension d, from its constructor."""
    kind = draw(st.sampled_from(["deterministic", "gaussian", "mixture"]))
    if kind == "deterministic":
        law = deterministic(draw(_vectors(d)))
    elif kind == "gaussian":
        A = np.array(draw(_vectors(d * d))).reshape(d, d)
        if draw(st.booleans()):
            A[:] = 0.0              # covariance 0
        law = gaussian(draw(_vectors(d)), A @ A.T)
    else:
        n = draw(st.integers(1, 3))
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n,
                                   max_size=n)))
        law = mixture([(p, draw(_vectors(d))) for p in w / w.sum()])
    return law


@st.composite
def random_laws(draw):
    """A law of any kind in d = 1 or 2, possibly shifted."""
    d = draw(st.integers(1, 2))
    law = draw(constructed_laws(d))
    if draw(st.booleans()):
        law = _centered(law)    # a law of a spec's table view
    return law, draw(_vectors(d))


def _same(a, b):
    return type(a) is type(b) and getattr(a, "dtype", None) == getattr(
        b, "dtype", None) and np.array_equal(a, b)


def _pow_squares(law):
    """Whether a point mass of law squares differently by pow(v, 2)."""
    return law.kind != "gaussian" and any(
        v[0] ** 2 != v[0] * v[0] for v in law.mean)


class TestAtomFormulas:
    """cf, moment, the edge mean and the variance_series second moments,
    each one formula over the laws' Gaussian atoms, equal the per-kind code
    bit for bit. The one exception is the square of a point mass: the atom
    formula squares by multiplication, which is correctly rounded, where the
    per-kind code used pow(v, 2). There the two agree to a few ulps."""

    @settings(max_examples=300, deadline=None)
    @given(random_laws())
    def test_equal_per_kind_code(self, case):
        law, zeta = case
        assert _same(law.cf(zeta), per_kind_cf(law, zeta))
        assert _same(law.cf(np.negative(zeta)),
                     per_kind_cf(law, np.negative(zeta)))
        assert _same(_one_edge(law).edge_mean_matrix()[0, 0],
                     per_kind_mean(law))
        if law.d == 1:
            for k in (1, 2, 3, 4):
                if k == 2 and _pow_squares(law):
                    assert law.moment(2) == pytest.approx(
                        per_kind_moment(law, 2), rel=1e-15, abs=0)
                else:
                    assert _same(law.moment(k), per_kind_moment(law, k))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 2))
    def test_variance_series_equal_per_kind_code(self, seed, d):
        raw = random_mixed_spec(seed, d)
        spec = MapSpec(kernel=raw.kernel, increments=raw.increments, d=d,
                       centered=True)
        got, want = variance_series(spec), per_kind_variance_series(spec)
        if d == 1 and any(map(_pow_squares, spec.increments.values())):
            assert got == pytest.approx(want, rel=1e-15, abs=0)
        else:
            assert _same(got, want)


class TestTableView:
    """spec.increments gives back the laws a spec was built from, each a
    read-only run of slices of the spec's atom table, with the cf and the
    moments of the per-kind code."""

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(1, 2))
    def test_laws_put_in(self, data, S, d):
        kernel = StochasticKernel(states=tuple(range(S)),
                                  P=np.full((S, S), 1.0 / S))
        laws = {(i, j): data.draw(constructed_laws(d))
                for i in range(S) for j in range(S)}
        spec = MapSpec(kernel=kernel, increments=laws, d=d)
        zeta = data.draw(_vectors(d))
        assert list(spec.increments) == list(laws)
        for e, law in laws.items():
            got = spec.increments[e]
            assert got.kind == law.kind and got.d == d
            for name in ("prob", "mean", "cov"):
                run = getattr(got, name)
                assert np.array_equal(run, getattr(law, name))
                assert not run.flags.writeable
                assert np.shares_memory(run, spec.edge_table[name])
            assert _same(got.cf(zeta), per_kind_cf(law, zeta))
            for k in (1, 2, 3, 4) if d == 1 else ():
                if k == 2 and _pow_squares(law):
                    assert got.moment(2) == pytest.approx(
                        per_kind_moment(law, 2), rel=1e-15, abs=0)
                else:
                    assert _same(got.moment(k), per_kind_moment(law, k))


class TestStructure:
    def test_density_component(self):
        # a law has a density component when one of its atoms has a
        # positive covariance; a zero-cov Gaussian is a point mass
        def density(law):
            return (law.cov[:, 0, 0] > 0).any()
        assert density(gaussian([0.0], [[1.0]]))
        assert not density(gaussian([0.0], [[0.0]]))
        assert not density(deterministic([1.0]))
        assert not density(mixture([(1.0, [2.0])]))

    def test_gaussian_atoms(self):
        g = gaussian([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        assert g.d == 2 and g.prob.tolist() == [1.0]
        assert g.mean.tolist() == [[1.0, 2.0]]
        assert g.cov.tolist() == [[[2.0, 0.5], [0.5, 1.0]]]
        assert not any(a.flags.writeable for a in (g.prob, g.mean, g.cov))
        p = deterministic([3.0])
        assert p.prob.tolist() == [1.0] and p.mean.tolist() == [[3.0]]
        assert p.cov.shape == (1, 1, 1) and not p.cov.any()
        run = mixture([(0.25, [0.0]), (0.75, [2.0])])
        assert [(p, m[0], c[0, 0]) for p, m, c
                in zip(run.prob, run.mean, run.cov)] == [
            (0.25, 0.0, 0.0), (0.75, 2.0, 0.0)]

    def test_shifted_mean(self):
        # centering shifts each law by minus the stationary mean, here 1
        for law in (deterministic([1.0]), gaussian([1.0], [[2.0]]),
                    mixture([(0.5, [0.0]), (0.5, [2.0])])):
            shifted = _centered(law)
            assert per_kind_mean(shifted)[0] == pytest.approx(
                per_kind_mean(law)[0] - 1.0)

    def test_shifted_cf_identity(self):
        law = mixture([(0.3, [1.0]), (0.7, [-0.5])])
        z, m = 0.9, per_kind_mean(law)[0]
        assert _centered(law).cf(z) == pytest.approx(
            law.cf(z) * np.exp(-1j * z * m))

    def test_shifted_cf_kind(self):
        # for every kind, centering moves the law's atoms and keeps its kind
        z = 0.6
        for law in (deterministic([1.0]), gaussian([1.0], [[2.0]]),
                    mixture([(0.3, [1.0]), (0.7, [-0.5])])):
            base, m = law.cf(z), per_kind_mean(law)[0]
            shifted = _centered(law)
            assert shifted.kind == law.kind
            assert shifted.cf(z) == pytest.approx(base * np.exp(-1j * z * m))
            assert per_kind_mean(shifted)[0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("make", [
        lambda: mixture([(0.5, [0.0]), (0.5, [1.0])]),
        lambda: gaussian([0.0, 1.0], np.eye(2)),
        lambda: deterministic([1.0])])
    def test_identity_equality(self, make):
        # laws hold arrays, so they compare and hash by identity
        law, twin = make(), make()
        assert law == law and law != twin
        assert len({law, twin, law}) == 2
        assert hash(law) == hash(law)

    def test_mixture_bad_probs(self):
        with pytest.raises(ValueError):
            mixture([(0.5, [0.0]), (0.6, [1.0])])

    @pytest.mark.parametrize("make", [
        lambda: deterministic([float("nan")]),
        lambda: gaussian([0.0], [[float("inf")]]),
        lambda: mixture([(float("nan"), [0.0]), (0.5, [1.0])]),
        lambda: mixture([(1.0, [float("-inf")])])])
    def test_nonfinite_field(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_gaussian_bad_cov(self):
        with pytest.raises(ValueError):
            gaussian([0.0], [[-1.0]])
