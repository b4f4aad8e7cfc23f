import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from maplab.chain_core import StochasticKernel
from maplab.errors import MomentUndefined, NonIrreducible, NotStochastic
from maplab.fixtures import (CT_TWO_STATE_G, birth_death_5, ct_two_state,
                             gaussian_iid, iid_rademacher, lattice_pm1,
                             skewed_mixture, two_state)
from maplab.increments import deterministic, gaussian, mixture
from maplab.map_model import (_THETA13, CtMapSpec, MapSpec, _expm,
                              branch_derivatives, ct_sample_skeleton,
                              detect_lattice, exact_mean,
                              exact_moments, third_cumulant_rate,
                              variance_series)

from conftest import (random_kernel, random_mixed_spec, step_moments,
                      van_loan_cumulants, van_loan_moments)


def _make_spec(P, values, centered=False):
    kernel = StochasticKernel(states=tuple(range(len(P))), P=np.asarray(P))
    incs = {(i, j): deterministic([values[i][j]])
            for i in range(len(P)) for j in range(len(P)) if P[i][j] > 0}
    return MapSpec(kernel=kernel, increments=incs, d=1, centered=centered)


class TestSpecConstruction:
    def test_missing_edge_law(self):
        kernel = StochasticKernel(states=(0, 1), P=np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            MapSpec(kernel=kernel, increments={(0, 0): deterministic([1.0])})

    def test_centering_shifts_mean_to_zero(self):
        spec = two_state()
        assert abs(exact_mean(spec)[0]) < 1e-12

    def test_centering_preserves_occupation_structure(self):
        # centered occupation increments are 1{j=1} - pi(1) = 1{j=1} - 0.6
        spec = two_state()
        assert spec.increments[(0, 1)].mean[0, 0] == pytest.approx(0.4)
        assert spec.increments[(0, 0)].mean[0, 0] == pytest.approx(-0.6)


class TestExactMoments:
    def test_mean_additivity(self):
        spec = skewed_mixture()
        m1 = exact_moments(spec, 1, 1)
        for n in (2, 7, 32):
            assert exact_moments(spec, n, 1) == pytest.approx(n * m1, abs=1e-10)

    def test_iid_second_moment(self):
        # E[Y_n^2] = n for i.i.d. +-1
        spec = iid_rademacher()
        for n in (1, 5, 100):
            assert exact_moments(spec, n, 2) == pytest.approx(float(n))

    def test_iid_fourth_moment(self):
        # sum of n i.i.d. Rademacher: E[Y_n^4] = 3n^2 - 2n
        spec = iid_rademacher()
        for n in (1, 4, 50):
            assert exact_moments(spec, n, 4) == pytest.approx(3.0 * n * n - 2.0 * n)

    def test_gaussian_moments(self):
        spec = gaussian_iid()
        n = 16
        assert exact_moments(spec, n, 2) == pytest.approx(float(n))
        assert exact_moments(spec, n, 3) == pytest.approx(0.0, abs=1e-9)
        assert exact_moments(spec, n, 4) == pytest.approx(3.0 * n * n)

    def test_two_state_variance_slope(self):
        # E[Y_n^2]/n approaches sigma^2 = 0.72 at rate 1/n
        spec = two_state()
        v1 = exact_moments(spec, 2048, 2) / 2048
        v2 = exact_moments(spec, 4096, 2) / 4096
        assert abs(v2 - 0.72) < abs(v1 - 0.72)
        assert v2 == pytest.approx(0.72, abs=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 64), st.integers(1, 4))
    def test_matches_step_recursion(self, seed, n, k):
        # matrix power against the explicit n-step recursion; rounding is
        # relative to the scale (1 + n * max rms increment)^k of the terms
        spec = random_mixed_spec(seed, d=1)
        rms = max(np.sqrt(law.moment(2)) for law in spec.increments.values())
        assert abs(exact_moments(spec, n, k) - step_moments(spec, n, k)) \
            <= 1e-12 * (1.0 + n * rms) ** k

    def test_negative_horizon_rejected(self):
        # a matrix power with n < 0 would silently invert the transfer matrix
        with pytest.raises(ValueError):
            exact_moments(two_state(), -1, 2)

    def test_requires_scalar(self):
        kernel = StochasticKernel(states=(0,), P=np.array([[1.0]]))
        spec = MapSpec(kernel=kernel,
                       increments={(0, 0): deterministic([1.0, 2.0])}, d=2)
        with pytest.raises(MomentUndefined):
            exact_moments(spec, 4, 2)


class TestVarianceSeries:
    def test_two_state_oracle(self):
        # pi(xi^2) (1 + 2 sum_l 0.5^l) = 0.24 * 3 = 0.72
        assert variance_series(two_state()) == pytest.approx(0.72, abs=1e-12)

    def test_iid_oracles(self):
        assert variance_series(iid_rademacher()) == pytest.approx(1.0)
        assert variance_series(skewed_mixture()) == pytest.approx(1.5)
        assert variance_series(gaussian_iid()) == pytest.approx(1.0)

    def test_uncentered_rejected(self):
        spec = _make_spec([[0.5, 0.5], [0.5, 0.5]], [[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            variance_series(spec)

    def test_matches_exact_moment_limit(self):
        spec = birth_death_5()
        sigma2 = variance_series(spec)
        n = 4096
        assert exact_moments(spec, n, 2) / n == pytest.approx(sigma2, rel=1e-2)

    def test_zero_increments(self):
        spec = _make_spec([[0.7, 0.3], [0.2, 0.8]],
                          [[0.0, 0.0], [0.0, 0.0]])
        assert variance_series(spec) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_specs_match_moment_slope(self, seed):
        rng = np.random.default_rng(seed)
        P = random_kernel(rng, 3)
        vals = rng.normal(size=(3, 3))
        kernel = StochasticKernel(states=(0, 1, 2), P=P)
        incs = {(i, j): deterministic([vals[i, j]])
                for i in range(3) for j in range(3)}
        spec = MapSpec(kernel=kernel, increments=incs, centered=True)
        sigma2 = variance_series(spec)
        slope = (exact_moments(spec, 4096, 2) - exact_moments(spec, 2048, 2)) / 2048
        assert slope == pytest.approx(sigma2, rel=1e-6, abs=1e-9)


class TestThirdCumulant:
    def test_skewed_oracle(self):
        # 0.5 (mu^3 + 3 mu s^2) + 0.5 * 1 = 0.5 (-4) + 0.5 = -1.5
        assert third_cumulant_rate(skewed_mixture()) == pytest.approx(-1.5, abs=1e-8)

    def test_symmetric_zero(self):
        assert third_cumulant_rate(iid_rademacher()) == pytest.approx(0.0, abs=1e-10)
        assert third_cumulant_rate(gaussian_iid()) == pytest.approx(0.0, abs=1e-10)


class TestLatticeDetection:
    def test_pm1_lattice(self):
        report = detect_lattice(lattice_pm1())
        assert report.is_lattice
        assert report.span == pytest.approx(2.0)
        assert report.shift == pytest.approx(1.0) or report.shift == pytest.approx(-1.0)

    def test_two_state_occupation_lattice(self):
        # centered occupation values {-0.6, 0.4} live on 0.4 + Z (span 1)
        report = detect_lattice(two_state())
        assert report.is_lattice
        assert report.span == pytest.approx(1.0)

    def test_density_component_nonlattice(self):
        assert not detect_lattice(gaussian_iid()).is_lattice

    def test_zero_cov_gaussian_is_a_point_mass(self):
        # the +-1 walk written with Gaussian laws of covariance 0 has no
        # density component: it is the lattice of lattice_pm1, span 2
        kernel = StochasticKernel(states=(0, 1), P=np.full((2, 2), 0.5))
        spec = MapSpec(kernel=kernel, centered=True, increments={
            (i, j): gaussian([2.0 * j - 1.0], [[0.0]])
            for i in range(2) for j in range(2)})
        report = detect_lattice(spec)
        assert report.is_lattice
        assert report.span == pytest.approx(2.0)

    def test_one_atom_mixture_is_a_point_mass(self):
        spec = _make_spec([[0.5, 0.5], [0.5, 0.5]], [[1.0, 3.0], [1.0, 3.0]])
        incs = {e: mixture([(1.0, law.mean[0])])
                for e, law in spec.increments.items()}
        report = detect_lattice(MapSpec(kernel=spec.kernel, increments=incs))
        assert report.is_lattice
        assert report.span == pytest.approx(detect_lattice(spec).span)

    def test_mixture_run_lattice(self):
        # a run of several atoms is searched like any other: {0, 1} is the
        # integer lattice
        kernel = StochasticKernel(states=(0,), P=np.array([[1.0]]))
        spec = MapSpec(kernel=kernel, increments={
            (0, 0): mixture([(0.5, [0.0]), (0.5, [1.0])])})
        report = detect_lattice(spec)
        assert report.is_lattice
        assert report.span == pytest.approx(1.0)

    def test_two_atoms_always_lattice(self):
        # any two-valued increment is lattice with span the atom gap
        spec = _make_spec([[0.5, 0.5], [0.5, 0.5]],
                          [[1.0, np.sqrt(2.0)], [1.0, np.sqrt(2.0)]])
        report = detect_lattice(spec)
        assert report.is_lattice
        assert report.span == pytest.approx(np.sqrt(2.0) - 1.0)

    def test_incommensurable_nonlattice(self):
        # three values {0, 1, sqrt(2)}: pairwise gaps share no real gcd
        spec = _make_spec([[0.5, 0.5], [0.5, 0.5]],
                          [[0.0, 1.0], [np.sqrt(2.0), 1.0]])
        assert not detect_lattice(spec).is_lattice

    def test_certificate_property(self):
        # the reported (shift, span, beta) must satisfy the lattice identity
        # v + beta(j) - beta(i) in shift + span * Z on every edge
        a, beta = 0.5, np.array([0.0, 0.3])
        vals = [[a + beta[i] - beta[j] for j in range(2)] for i in range(2)]
        spec = _make_spec([[0.5, 0.5], [0.4, 0.6]], vals)
        report = detect_lattice(spec)
        assert report.is_lattice
        for (i, j), law in spec.increments.items():
            resid = (law.mean[0, 0] + report.beta[j] - report.beta[i]
                     - report.shift)
            if report.span > 0:
                k = resid / report.span
                assert abs(k - round(k)) < 1e-9
            else:
                assert abs(resid) < 1e-9

    def test_gradient_shift_invariance(self):
        # adding a constant c to every increment moves the shift by c
        base = _make_spec([[0.5, 0.5], [0.5, 0.5]], [[1.0, 3.0], [1.0, 3.0]])
        shifted = _make_spec([[0.5, 0.5], [0.5, 0.5]], [[1.5, 3.5], [1.5, 3.5]])
        r1, r2 = detect_lattice(base), detect_lattice(shifted)
        assert r1.span == pytest.approx(r2.span)
        assert r2.shift - r1.shift == pytest.approx(0.5)

    SCALES = (1e-3, 1.0, 1e3, 1e6, 1e8)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kmax=st.integers(1, 5))
    def test_scale_invariant(self, seed, kmax):
        # increments a + beta(i) - beta(j) + 0.7 k (k integer) are lattice
        # at every scale s, with span s times the span at s = 1; generic
        # reals stay nonlattice at every scale
        rng = np.random.default_rng(seed)
        P = random_kernel(rng, 3)
        beta = rng.normal(size=3)
        k = rng.integers(-kmax, kmax + 1, size=(3, 3))
        lattice = 0.3 + beta[:, None] - beta[None, :] + 0.7 * k
        generic = rng.normal(size=(3, 3))
        unit = detect_lattice(_make_spec(P, lattice))
        assert unit.is_lattice
        for s in self.SCALES:
            report = detect_lattice(_make_spec(P, s * lattice))
            assert report.is_lattice
            assert report.span == pytest.approx(s * unit.span, rel=1e-6,
                                                abs=1e-9 * s)
            assert not detect_lattice(_make_spec(P, s * generic)).is_lattice


class TestContinuousTime:
    def test_pi_oracle(self):
        np.testing.assert_allclose(ct_two_state().pi, [2 / 3, 1 / 3], atol=1e-12)

    def test_centering(self):
        ct = ct_two_state(centered=True)
        assert ct.pi @ ct.reward == pytest.approx(0.0, abs=1e-12)

    def test_bad_generator_rows(self):
        from maplab.map_model import CtMapSpec
        with pytest.raises(ValueError):
            CtMapSpec(generator=np.array([[-1.0, 0.5], [2.0, -2.0]]),
                      reward=np.array([0.0, 1.0]))

    def test_skeleton_kernel_is_expm(self):
        ct = ct_two_state()
        skeleton = ct_sample_skeleton(ct)
        np.testing.assert_allclose(skeleton.P, scipy.linalg.expm(CT_TWO_STATE_G),
                                   atol=1e-12)

    def test_skeleton_cf_normalization(self):
        # the rows of the skeleton kernel sum to 1, and so does the law of
        # Y_1: its order-0 moment pi exp(G) 1 from Van Loan's exponential
        ct = ct_two_state()
        kernel = ct_sample_skeleton(ct)
        np.testing.assert_allclose(kernel.P.sum(axis=1), 1.0, atol=1e-15)
        assert van_loan_moments(ct, 1.0, 1)[0] == pytest.approx(1.0,
                                                                abs=1e-14)

    def test_skeleton_mean_matches_reward_rate(self):
        # centered CT spec: the exact one-step mean E[Y_1] is 0
        ct = ct_two_state(centered=True)
        assert abs(van_loan_moments(ct, 1.0, 1)[1]) <= 1e-14

    def test_uncentered_skeleton_mean(self):
        # E[Y_1] = pi(xi) = 1/3 for the uncentered fixture
        ct = ct_two_state(centered=False)
        assert van_loan_moments(ct, 1.0, 1)[1] == pytest.approx(1.0 / 3.0,
                                                               abs=1e-14)

    def test_pi_solved_once(self):
        ct = ct_two_state()
        assert ct.pi is ct.pi

    def test_reducible_generator_rejected(self):
        G = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(NonIrreducible):
            CtMapSpec(generator=G, reward=np.zeros(3))

    def test_nonfinite_generator_rejected(self):
        G = np.array([[-1.0, 1.0], [np.nan, -2.0]])
        with pytest.raises(NotStochastic):
            CtMapSpec(generator=G, reward=np.zeros(2))

    def test_centering_counts_jump_increments(self):
        # mean rate pi(xi + (G_off o J) 1): 1/3 from the reward, 1/3 from
        # the jumps; both must be removed
        J = np.array([[0.0, 1.0], [-0.5, 0.0]])
        ct = CtMapSpec(generator=CT_TWO_STATE_G, reward=np.array([0.0, 1.0]),
                       jump_increments=J, centered=True)
        off = CT_TWO_STATE_G - np.diag(np.diag(CT_TWO_STATE_G))
        assert abs(ct.pi @ (ct.reward + (off * J).sum(axis=1))) <= 1e-12
        assert abs(branch_derivatives(ct)[0]) <= 1e-12
        np.testing.assert_allclose(ct.reward, [-2 / 3, 1 / 3], atol=1e-12)

    def test_fundamental_is_read_only_inverse(self):
        # (Pi - G)^-1, bit for bit as branch_derivatives formed it inline
        for ct in (ct_two_state(), _random_ct(0, 5)):
            Pi = np.tile(ct.pi, (ct.n_states, 1))
            np.testing.assert_array_equal(ct.fundamental,
                                          np.linalg.inv(Pi - ct.generator))
            assert not ct.fundamental.flags.writeable

    @pytest.mark.parametrize("G", [
        [[-1e300, 1e300], [1e300, -1e300]],
        (1e200 * np.array([[-3.0, 1.0, 2.0], [1.0, -1.5, 0.5],
                           [0.25, 2.0, -2.25]])).tolist()],
        ids=["two_state_1e300", "three_state_1e200"])
    def test_huge_rates_rejected(self, G):
        # Pi is lost beside G: Pi - G is singular in floating point, or its
        # inverse no longer maps 1 to 1
        with pytest.raises(NotStochastic, match="Pi - G"):
            CtMapSpec(generator=np.array(G), reward=np.zeros(len(G)))

    def test_stiff_generator_loads(self):
        ct = CtMapSpec(generator=np.array([[-1e8, 1e8], [1e-8, -1e-8]]),
                       reward=np.array([0.0, 1.0]))
        np.testing.assert_allclose(ct.fundamental @ np.ones(2), 1.0,
                                   rtol=0, atol=1e-12)

    def test_variance_rate_matches_skeleton_route(self):
        # the perturbation series against Var Y_61 - Var Y_60, exact by Van
        # Loan's exponential at the skeleton's integer times
        ct = ct_two_state()
        l1, l2, _ = branch_derivatives(ct)
        rate = van_loan_cumulants(ct, 61.0) - van_loan_cumulants(ct, 60.0)
        assert abs(l2 - l1 * l1 - rate[1]) <= 1e-9


def _random_ct(seed, S):
    """CT spec with jumps, rates scaled to one expected jump per unit time."""
    rng = np.random.default_rng(seed)
    G = rng.uniform(0.0, 1.0, size=(S, S))
    np.fill_diagonal(G, 0.0)
    np.fill_diagonal(G, -G.sum(axis=1))
    G /= CtMapSpec(generator=G, reward=np.zeros(S)).pi @ -np.diag(G)
    J = rng.normal(size=(S, S))
    np.fill_diagonal(J, 0.0)
    return CtMapSpec(generator=G, reward=rng.normal(size=S),
                     jump_increments=J)


@pytest.mark.parametrize("ct", [ct_two_state(centered=False),
                                ct_two_state(centered=True),
                                _random_ct(0, 5)],
                         ids=["ct_two_state", "centered", "random_S5_jumps"])
def test_ct_rates_match_van_loan(ct):
    # mean rate, sigma^2 and mu_3 of the perturbation series against the
    # differences of the exact cumulants of Y_61 and Y_60; the gap makes
    # the remainder exp(-gap t) negligible at t = 60
    l1, l2, _ = branch_derivatives(ct)
    rates = van_loan_cumulants(ct, 61.0) - van_loan_cumulants(ct, 60.0)
    exact = [l1, l2 - l1 * l1, third_cumulant_rate(ct)]
    np.testing.assert_allclose(rates, exact, rtol=0, atol=1e-9)


def _rel(X, Y):
    """max |X - Y| over max |Y|: the difference relative to the result."""
    return np.abs(X - Y).max() / np.abs(Y).max()


def _generator(rng, S, scale):
    G = scale * rng.exponential(size=(S, S)) * (rng.random((S, S)) < 0.5)
    np.fill_diagonal(G, 0.0)
    np.fill_diagonal(G, -G.sum(axis=1))
    return G


class TestExpm:
    """map_model._expm against scipy.linalg.expm, the oracle here."""

    @pytest.mark.parametrize("S", range(1, 33))
    def test_random_generators(self, S):
        # t G over two decades of norms, and A(zeta) = G + i zeta diag(xi)
        # with jump phases off the diagonal, as fourier_generator builds it
        rng = np.random.default_rng(S)
        for scale in (0.05, 1.0, 30.0):
            G = _generator(rng, S, scale)
            assert _rel(_expm(G), scipy.linalg.expm(G)) <= 1e-12
            phase = np.exp(1j * rng.uniform(-5, 5) * rng.normal(size=(S, S)))
            np.fill_diagonal(phase, 1.0)
            A = G * phase + 1j * rng.uniform(-5, 5) * np.diag(
                rng.normal(size=S))
            assert _rel(_expm(A), scipy.linalg.expm(A)) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_fourier_stack_mixed_scalings(self, seed):
        rng = np.random.default_rng(seed)
        S = int(rng.integers(2, 9))
        ct = CtMapSpec(generator=_generator(rng, S, 1.0),
                       reward=rng.normal(size=S))
        A = ct.fourier_generator(np.linspace(0.0, 200.0, 41))
        norms = np.abs(A).sum(axis=1).max(axis=1)
        assert len(np.unique(np.ceil(np.log2(norms / _THETA13)).clip(0))) > 3
        X, Y = _expm(A), scipy.linalg.expm(A)
        assert X.shape == A.shape
        for k in range(len(A)):
            assert _rel(X[k], Y[k]) <= 1e-12

    def test_stack_equals_members(self):
        rng = np.random.default_rng(7)
        A = np.array([_generator(rng, 4, scale) + 1j * np.diag(
            rng.normal(size=4)) * scale for scale in (0.0, 0.1, 3.0, 50.0)])
        X = _expm(A)
        for k in range(len(A)):
            assert _rel(X[k], _expm(A[k])) <= 1e-12

    @pytest.mark.parametrize("A", [
        np.zeros((3, 3)),
        np.diag([-40.0, 0.0, 2.5]),
        np.diag([-3.0 + 7.0j, 1j, 0.0]),
        np.triu(np.arange(1.0, 17.0).reshape(4, 4)) - 30.0 * np.eye(4),
        np.tril(np.arange(1.0, 17.0).reshape(4, 4)) * (1 - 2j),
        np.array([[2.5]]),
        np.array([[-700.0]]),
        np.array([[3.0j]])],
        ids=["zero", "diagonal", "complex_diagonal", "upper", "lower",
             "1x1", "1x1_tiny", "1x1_complex"])
    def test_special_forms(self, A):
        # the forms scipy computes by its own formulas, not by Pade
        X = _expm(A)
        assert X.shape == A.shape and X.dtype == np.result_type(A, float)
        assert _rel(X, scipy.linalg.expm(A)) <= 1e-12
