"""maplab.normal against scipy.special, bit for bit.

scipy.special stays the oracle here: every report, sample and hash keeps
its bytes only if ndtr and ndtri agree with it in every bit.
"""

import numpy as np
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from maplab.normal import ndtr, ndtri


def assert_bits(got, want):
    """Same shape, nan where want is nan, otherwise the same bits (so the
    sign of a zero counts)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    assert np.array_equal(got, want, equal_nan=True)


EDGE_A = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan],
    # the branch edges: x = a / sqrt(2) at 1/sqrt(2), 1 and 8
    [s * v for v in (1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0)) for s in (1, -1)],
    # |a| in 37.5-38.6, where exp(-a^2 / 2) underflows
    np.linspace(37.5, 38.6, 4001), -np.linspace(37.5, 38.6, 4001)])
EDGE_U = np.array([0.0, 5e-324, 1e-300, np.exp(-2.0), 1.0 - np.exp(-2.0), 0.5,
                   np.nextafter(1.0, 0.0), 1.0, -0.0, -1e-300, 1.5, np.nan,
                   np.inf, -np.inf])


def _around(v, k=64):
    """The k floats on either side of v, and v."""
    up = [v]
    down = [v]
    for _ in range(k):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], -np.inf))
    return np.array(down[::-1] + up[1:])


class TestNdtr:
    def test_million_points(self):
        rng = np.random.default_rng(20)
        a = np.concatenate([rng.normal(size=400_000),
                            rng.uniform(-40.0, 40.0, size=400_000),
                            rng.standard_cauchy(size=200_000)])
        assert_bits(ndtr(a), sc.ndtr(a))

    def test_edges(self):
        assert_bits(ndtr(EDGE_A), sc.ndtr(EDGE_A))
        for v in (1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), 37.68):
            a = np.concatenate([_around(v), -_around(v)])
            assert_bits(ndtr(a), sc.ndtr(a))

    def test_shapes(self):
        a = np.random.default_rng(3).normal(size=(50, 3))
        assert_bits(ndtr(a), sc.ndtr(a))
        assert_bits(ndtr(np.empty(0)), sc.ndtr(np.empty(0)))
        assert_bits(ndtr(1.5), sc.ndtr(np.array(1.5)))

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(1, 40), elements=st.floats(
        allow_nan=True, allow_infinity=True, width=64)))
    def test_property(self, a):
        assert_bits(ndtr(a), sc.ndtr(a))


class TestNdtri:
    def test_million_points(self):
        rng = np.random.default_rng(21)
        u = np.concatenate([rng.random(600_000),
                            np.exp(-rng.uniform(0.0, 745.0, size=200_000)),
                            -np.expm1(-rng.uniform(0.0, 37.0, size=200_000))])
        assert_bits(ndtri(u), sc.ndtri(u))

    def test_edges(self):
        assert_bits(ndtri(EDGE_U), sc.ndtri(EDGE_U))
        # the central/tail switch at exp(-2) and 1 - exp(-2), and the
        # 1/x split at x = 8 (y = exp(-32))
        for v in (np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0)):
            assert_bits(ndtri(_around(v)), sc.ndtri(_around(v)))

    def test_two_d(self):
        # simulate_discrete draws ndtri(u) for u of shape (n_paths, d)
        u = np.random.default_rng(4).random((1000, 3))
        assert_bits(ndtri(u), sc.ndtri(u))
        assert_bits(ndtri(u[:, :1]), sc.ndtri(u[:, :1]))
        assert_bits(ndtri(np.empty((0, 2))), sc.ndtri(np.empty((0, 2))))

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(1, 40), elements=st.floats(
        allow_nan=True, allow_infinity=True, width=64)))
    def test_property(self, u):
        assert_bits(ndtri(u), sc.ndtri(u))

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(1, 40), elements=st.floats(
        0.0, 1.0, width=64)))
    def test_property_unit(self, u):
        assert_bits(ndtri(u), sc.ndtri(u))
