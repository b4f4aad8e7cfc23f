import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maplab.chain_core import (StochasticKernel, _closed_classes,
                               l2_operator_norm, solve_stationary,
                               spectral_gap_report)
from maplab.errors import NonIrreducible, NotStochastic, ZeroMassState
from maplab.fixtures import TWO_STATE_P, get_fixture

from conftest import closed_classes_dfs, random_kernel


@st.composite
def sparse_supports(draw):
    """Successor lists of a random sparse graph on S <= 8 states.

    Each state gets one to three successors, so absorbing states, transient
    states, several closed classes and periodic cycles all occur.
    """
    S = draw(st.integers(1, 8))
    return [sorted(set(draw(st.lists(st.integers(0, S - 1), min_size=1,
                                     max_size=3))))
            for _ in range(S)]


def _kernel_on(successors, weights):
    """Row-stochastic matrix with the given support and positive weights."""
    S = len(successors)
    P = np.zeros((S, S))
    for x, ys in enumerate(successors):
        P[x, ys] = weights[x * S:x * S + len(ys)]
    return P / P.sum(axis=1, keepdims=True)


class TestClosedClasses:
    @settings(max_examples=300, deadline=None)
    @given(sparse_supports(), st.lists(st.integers(1, 9), min_size=64,
                                       max_size=64))
    @example([[0], [1], [2]], [1] * 64)                 # identity: 3 classes
    @example([[1], [2], [0]], [1] * 64)                 # period-3 cycle
    @example([[0, 1], [1], [1, 2], [3, 0]], [1] * 64)   # absorbing + transient
    @example([[1], [0], [3], [2], [0, 2]], [1] * 64)    # two periodic classes
    def test_matches_dfs_oracle(self, successors, weights):
        P = _kernel_on(successors, weights)
        expected = closed_classes_dfs(successors)
        assert [tuple(c) for c in _closed_classes(P)] == expected
        if len(expected) == 1:
            pi = solve_stationary(P)
            assert tuple(np.flatnonzero(pi > 0)) == expected[0]
            np.testing.assert_allclose(pi @ P, pi, atol=1e-10)
        else:
            with pytest.raises(NonIrreducible,
                               match=f"^{len(expected)} closed classes "
                                     "detected$"):
                solve_stationary(P)


class TestSolveStationary:
    def test_two_state_oracle(self):
        # pi P = pi solved by hand: pi = (2/5, 3/5)
        pi = solve_stationary(TWO_STATE_P)
        np.testing.assert_allclose(pi, [0.4, 0.6], atol=1e-12)

    def test_identity_multiple_classes(self):
        with pytest.raises(NonIrreducible):
            solve_stationary(np.eye(3))

    def test_not_stochastic_row_sum(self):
        with pytest.raises(NotStochastic):
            solve_stationary(np.array([[0.5, 0.4], [0.2, 0.8]]))

    def test_negative_entry(self):
        with pytest.raises(NotStochastic):
            solve_stationary(np.array([[1.1, -0.1], [0.2, 0.8]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_entry(self, bad):
        # NaN compares False everywhere and once gave pi = (1, 0)
        with pytest.raises(NotStochastic):
            solve_stationary(np.array([[0.5, bad], [0.5, 0.5]]))

    def test_absorbing_state_reachable(self):
        # one closed class {1}; transient state 0 gets pi = 0
        P = np.array([[0.5, 0.5], [0.0, 1.0]])
        pi = solve_stationary(P)
        np.testing.assert_allclose(pi, [0.0, 1.0], atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10 ** 6))
    def test_random_positive_kernels(self, n, seed):
        P = random_kernel(np.random.default_rng(seed), n)
        pi = solve_stationary(P)
        assert pi.min() > 0
        np.testing.assert_allclose(pi @ P, pi, atol=1e-10)
        assert abs(pi.sum() - 1.0) < 1e-12


class TestKernel:
    def test_projector_rows(self, two_state):
        Pi = two_state.kernel.projector
        np.testing.assert_allclose(Pi, np.tile([0.4, 0.6], (2, 1)))

    def test_supplied_pi_mismatch(self):
        with pytest.raises(NotStochastic):
            StochasticKernel(states=("a", "b"), P=TWO_STATE_P,
                             pi=np.array([0.5, 0.5]))

    def test_immutable(self, two_state):
        with pytest.raises(ValueError):
            two_state.kernel.P[0, 0] = 0.0

    @pytest.mark.parametrize("name", ["two_state", "iid_rademacher",
                                      "lattice_pm1", "skewed_mixture",
                                      "gaussian_iid", "birth_death_5"])
    def test_fundamental_is_read_only_inverse(self, name):
        kernel = get_fixture(name).kernel
        S = kernel.n_states
        Z = kernel.fundamental
        assert Z is kernel.fundamental
        assert np.array_equal(Z, np.linalg.inv(np.eye(S) - kernel.P
                                               + kernel.projector))
        with pytest.raises(ValueError):
            Z[0, 0] = 0.0


class TestL2Norm:
    def test_identity_minus_projector(self):
        # ||I - Pi||_2 = 1 for any nontrivial pi
        kernel = StochasticKernel(states=(0, 1), P=TWO_STATE_P)
        norm = l2_operator_norm(np.eye(2) - kernel.projector, kernel.pi)
        assert abs(norm - 1.0) < 1e-12

    def test_uniform_pi_reduces_to_spectral_norm(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        pi = np.full(4, 0.25)
        assert abs(l2_operator_norm(A, pi) - np.linalg.norm(A, 2)) < 1e-12

    def test_zero_mass_state_raises(self):
        pi = np.array([0.0, 1.0])
        with pytest.raises(ZeroMassState):
            l2_operator_norm(np.array([[1.0, 0.0], [0.0, 1.0]]), pi)

    def test_zero_mass_state_ignored_when_inactive(self):
        pi = np.array([0.0, 1.0])
        A = np.array([[0.0, 0.0], [0.0, 3.0]])
        assert abs(l2_operator_norm(A, pi) - 3.0) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_submultiplicative(self, seed):
        rng = np.random.default_rng(seed)
        P = random_kernel(rng, 4)
        pi = solve_stationary(P)
        A = rng.normal(size=(4, 4))
        B = rng.normal(size=(4, 4))
        lhs = l2_operator_norm(A @ B, pi)
        rhs = l2_operator_norm(A, pi) * l2_operator_norm(B, pi)
        assert lhs <= rhs * (1 + 1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_kernel_contraction(self, seed):
        # ||P||_{L2(pi)} <= 1 for every stochastic kernel
        P = random_kernel(np.random.default_rng(seed), 5)
        pi = solve_stationary(P)
        assert l2_operator_norm(P, pi) <= 1.0 + 1e-10


class TestReversibility:
    def test_reversible_second_eigenvalue_equals_gap_norm(self):
        # reversible: ||P - Pi||_2 equals the second-largest |eigenvalue|
        from maplab.fixtures import birth_death_5
        kernel = birth_death_5().kernel
        flux = kernel.pi[:, None] * kernel.P     # detailed balance
        assert np.max(np.abs(flux - flux.T)) <= 1e-12
        eigs = np.sort(np.abs(np.linalg.eigvals(kernel.P)))[::-1]
        norm = l2_operator_norm(kernel.P - kernel.projector, kernel.pi)
        assert abs(norm - eigs[1]) < 1e-10


class TestSpectralGapReport:
    def test_two_state_exact_powers(self, two_state):
        # P - Pi has the single eigenvalue 0.5; by symmetry the L2 norm of
        # (P - Pi)^t is exactly 0.5^t, and P^t - Pi = (P - Pi)^t
        table = spectral_gap_report(two_state.kernel, 11)
        for t in range(1, 12):
            expected = 1.0 if t == 1 else 0.5 ** (t - 1)
            assert abs(table.bound(t) - expected) < 1e-10

    def test_two_state_fitted_rate(self, two_state):
        table = spectral_gap_report(two_state.kernel, 11)
        assert abs(table.eps - np.log(2.0)) < 1e-6
        assert table.gap_present

    def test_iid_rows_zero_for_t_ge_2(self):
        from maplab.fixtures import iid_rademacher
        table = spectral_gap_report(iid_rademacher().kernel, 6)
        for t in range(2, 7):
            assert table.bound(t) == pytest.approx(0.0, abs=1e-14)
        assert table.eps == np.inf and table.C == 0.0

    def test_periodic_chain_vacuous(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        table = spectral_gap_report(StochasticKernel(states=(0, 1), P=P), 6)
        assert not table.gap_present
        assert np.all(table.bounds >= 1.0 - 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_power_identity(self, seed):
        # P^n - Pi = (P - Pi)^n, so the bound table is submultiplicative
        P = random_kernel(np.random.default_rng(seed), 4)
        kernel = StochasticKernel(states=tuple(range(4)), P=P)
        Pi = kernel.projector
        Pn = np.linalg.matrix_power(P, 5)
        Dn = np.linalg.matrix_power(P - Pi, 5)
        np.testing.assert_allclose(Pn - Pi, Dn, atol=1e-12)

    def test_monotone_after_t2(self, two_state):
        table = spectral_gap_report(two_state.kernel, 10)
        diffs = np.diff(table.bounds[1:])
        assert (diffs <= 1e-12).all()
