import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maplab import fixtures
from maplab.chain_core import StochasticKernel, l2_operator_norm
from maplab.errors import BranchCollision, NonFiniteOperator
from maplab.fixtures import (birth_death_5, ct_two_state, gaussian_iid,
                             iid_rademacher, lattice_pm1, skewed_mixture,
                             two_state)
from maplab.fourier import (NONLATTICE_GRID, NONLATTICE_RHO_MAX,
                            _fourier_matrix, derivatives_at_zero,
                            lambda_branch, nonlattice_certificate,
                            nonlattice_scan)
from maplab.increments import deterministic, gaussian, mixture
from maplab.map_model import (CtMapSpec, MapSpec, detect_lattice, exact_mean,
                              third_cumulant_rate, variance_series)

from conftest import (contour_crosscheck, edge_loop_fourier, fourier_power,
                      full_nonlattice_scan, random_kernel, random_mixed_spec,
                      semigroup_residual, spectral_expansion, step_moments)

ALL_DISCRETE = [two_state, iid_rademacher, skewed_mixture, gaussian_iid]
BRANCH_SPECS = ALL_DISCRETE + [birth_death_5, lattice_pm1, ct_two_state]
# the CLI's default grid, its negative half the exact negation of the other
SYMMETRIC_GRID = np.linspace(-0.5, 0.5, 41)
SYMMETRIC_GRID = np.where(SYMMETRIC_GRID < 0, -SYMMETRIC_GRID[::-1],
                          SYMMETRIC_GRID)


def _random_spec(seed, n_states=3):
    rng = np.random.default_rng(seed)
    P = random_kernel(rng, n_states)
    kernel = StochasticKernel(states=tuple(range(n_states)), P=P)
    vals = rng.normal(size=(n_states, n_states))
    incs = {(i, j): deterministic([vals[i, j]])
            for i in range(n_states) for j in range(n_states)}
    return MapSpec(kernel=kernel, increments=incs, centered=True)


class TestFourierOperator:
    def test_zeta_zero_is_kernel(self, two_state):
        M = _fourier_matrix(two_state, 0.0)[0]
        np.testing.assert_allclose(M, two_state.P, atol=1e-15)

    def test_entries_are_weighted_cfs(self, two_state):
        z = 0.8
        M = _fourier_matrix(two_state, z)[0]
        for (i, j), law in two_state.increments.items():
            assert M[i, j] == pytest.approx(two_state.P[i, j] * law.cf(z))

    def test_ct_at_zero_is_skeleton_kernel(self, ct_two_state):
        import scipy.linalg
        M = _fourier_matrix(ct_two_state, 0.0)[0]
        np.testing.assert_allclose(M, scipy.linalg.expm(ct_two_state.generator),
                                   atol=1e-12)

    def test_cf_of_additive_component(self, two_state):
        # pi S_1(zeta)^n 1 = E[exp(i zeta Y_n)]
        from maplab.map_model import exact_moments
        z = 0.05
        n = 8
        M = np.linalg.matrix_power(_fourier_matrix(two_state, z)[0], n)
        cf = complex(two_state.pi @ M @ np.ones(2))
        m2 = exact_moments(two_state, n, 2)
        # second-order Taylor of the cf at small zeta; the z^4 E[Y_n^4]/24
        # term bounds the truncation error at ~3e-5 here
        assert cf.real == pytest.approx(1.0 - 0.5 * z * z * m2, abs=5e-5)


class TestStackedFourier:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 8))
    def test_matches_edge_loop(self, seed, K):
        spec = random_mixed_spec(seed)
        Z = np.random.default_rng(seed + 1).uniform(-10, 10, size=(K, spec.d))
        stack = _fourier_matrix(spec, Z)
        assert stack.shape == (K, spec.n_states, spec.n_states)
        for M, z in zip(stack, Z):
            np.testing.assert_allclose(M, edge_loop_fourier(spec, z),
                                       rtol=0, atol=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6))
    def test_ct_matches_pointwise_expm(self, zetas):
        # A(zeta) = G with G_ij exp(i zeta J_ij) off the diagonal, plus
        # i zeta diag(xi), built here entry by entry
        import scipy.linalg
        G = np.array([[-1.0, 1.0], [2.0, -2.0]])
        J = np.array([[0.0, 1.0], [-0.5, 0.0]])
        xi = np.array([0.0, 1.0])
        ct = CtMapSpec(generator=G, reward=xi, jump_increments=J)
        stack = _fourier_matrix(ct, zetas)
        for M, z in zip(stack, zetas):
            A = np.array(G, dtype=complex)
            A[0, 1] *= np.exp(1j * z * J[0, 1])
            A[1, 0] *= np.exp(1j * z * J[1, 0])
            A[[0, 1], [0, 1]] += 1j * z * xi
            np.testing.assert_allclose(M, scipy.linalg.expm(A),
                                       rtol=0, atol=1e-13)

    def test_ct_looks_up_expm_at_call_time(self, ct_two_state, monkeypatch):
        # one stacked exponential per call, looked up at call time (so a
        # patched fourier._expm sees every CT call)
        import maplab.fourier
        calls = []

        def counting(A):
            calls.append(np.shape(A))
            return expm(A)

        expm = maplab.fourier._expm
        monkeypatch.setattr(maplab.fourier, "_expm", counting)
        zetas = np.array([0.0, 0.5, 1.0])
        stack = _fourier_matrix(ct_two_state, zetas)
        assert calls == [(3, 2, 2)]
        np.testing.assert_array_equal(
            stack, expm(ct_two_state.fourier_generator(zetas)))


class TestSemigroup:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6), st.floats(-3, 3),
           st.integers(0, 5), st.integers(0, 5))
    def test_discrete_random(self, seed, zeta, s, t):
        spec = _random_spec(seed)
        assert semigroup_residual(spec, zeta, s, t) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-3, 3), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
    def test_continuous_random(self, zeta, s, t):
        ct = ct_two_state()
        assert semigroup_residual(ct, zeta, s, t) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6), st.floats(-5, 5))
    def test_contraction(self, seed, zeta):
        spec = _random_spec(seed)
        norm = l2_operator_norm(fourier_power(spec, zeta, 1), spec.pi)
        assert norm <= 1.0 + 1e-10


class TestLambdaBranch:
    def test_at_zero(self, two_state):
        summary = lambda_branch(two_state, np.array([0.0]))
        assert summary.lam[0] == pytest.approx(1.0)
        np.testing.assert_allclose(summary.projections[0],
                                   two_state.kernel.projector, atol=1e-10)

    def test_conjugation_symmetry(self):
        for make in ALL_DISCRETE:
            spec = make()
            grid = np.linspace(-0.5, 0.5, 21)
            summary = lambda_branch(spec, grid)
            lam_rev = summary.lam[::-1]
            np.testing.assert_allclose(summary.lam, np.conj(lam_rev),
                                       atol=1e-10)

    def test_projection_normalization_continuous(self, two_state):
        # pi(Pi(zeta) 1) is continuous and equals 1 at zeta = 0
        grid = np.linspace(-0.5, 0.5, 41)
        summary = lambda_branch(two_state, grid)
        vals = np.array([two_state.pi @ (p @ np.ones(2))
                         for p in summary.projections])
        k0 = np.argmin(np.abs(grid))
        assert vals[k0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(np.diff(vals))) < 0.05

    def test_separation_reported(self, two_state):
        summary = lambda_branch(two_state, np.linspace(-0.3, 0.3, 11))
        assert 0 < summary.separation <= 1.0
        assert summary.kappa_hat < 1.0

    def test_branch_collision_raised(self):
        # periodic chain: eigenvalues +-1 at zeta = 0, no separation
        kernel = StochasticKernel(states=(0, 1),
                                  P=np.array([[0.0, 1.0], [1.0, 0.0]]))
        incs = {(0, 1): deterministic([1.0]), (1, 0): deterministic([-1.0])}
        spec = MapSpec(kernel=kernel, increments=incs)
        with pytest.raises(BranchCollision):
            lambda_branch(spec, np.array([0.0]))

    def test_grid_must_contain_zero(self, two_state):
        with pytest.raises(ValueError):
            lambda_branch(two_state, np.array([0.1, 0.2]))

    @pytest.mark.parametrize("make", BRANCH_SPECS)
    def test_mirrored_half_against_direct_eig(self, make):
        # lambda and Pi at zeta < 0 are read as conjugates; a direct eig of
        # S_1(zeta) at that zeta is the independent oracle
        spec = make()
        summary = lambda_branch(spec, SYMMETRIC_GRID)
        for k in np.flatnonzero(SYMMETRIC_GRID < 0):
            w, V = np.linalg.eig(_fourier_matrix(spec, [SYMMETRIC_GRID[k]])[0])
            i = int(np.argmin(np.abs(w - summary.lam[k])))
            assert abs(w[i] - summary.lam[k]) < 1e-10
            direct = np.outer(V[:, i], np.linalg.inv(V)[i])
            assert np.max(np.abs(direct - summary.projections[k])) < 1e-9

    @pytest.mark.parametrize("make", BRANCH_SPECS)
    def test_nonnegative_half_is_its_own_walk(self, make):
        keep = SYMMETRIC_GRID >= 0
        summary = lambda_branch(make(), SYMMETRIC_GRID)
        half = lambda_branch(make(), SYMMETRIC_GRID[keep])
        assert np.array_equal(summary.lam[keep], half.lam)
        assert np.array_equal(summary.projections[keep], half.projections)
        assert summary.kappa_hat == half.kappa_hat
        assert summary.separation == half.separation

    def test_asymmetric_grid_reads_the_one_walk(self, two_state):
        # -0.3 has no mirror on the grid: it is the conjugate of the walk
        # continued to |zeta| = 0.3
        summary = lambda_branch(two_state, np.array([-0.3, 0.0, 0.1, 0.2]))
        walk = lambda_branch(two_state, np.array([0.0, 0.1, 0.2, 0.3]))
        assert np.array_equal(summary.lam, np.append(np.conj(walk.lam[3]),
                                                     walk.lam[:3]))
        assert np.array_equal(summary.projections[0],
                              np.conj(walk.projections[3]))
        assert np.array_equal(summary.projections[1:], walk.projections[:3])
        assert (summary.kappa_hat, summary.separation) == (walk.kappa_hat,
                                                           walk.separation)

    @pytest.mark.parametrize("grid", [np.arange(-60, 61) / 10,
                                      np.arange(60, -61, -1) / 10,
                                      np.arange(-20, 61) / 10])
    def test_collision_names_first_grid_point(self, grid):
        # gaussian_iid: |lambda| = exp(-zeta^2 / 2) falls below 1e-6 near
        # 5.3; the message names the first grid point at the failing |zeta|
        spec = gaussian_iid()
        with pytest.raises(BranchCollision) as half:
            lambda_branch(spec, grid[grid >= 0])
        m = float(str(half.value).split("zeta=")[1].split()[0])
        at = grid[np.flatnonzero(np.abs(grid) == m)[0]]
        with pytest.raises(BranchCollision, match=f"at zeta={at:g} below"):
            lambda_branch(spec, grid)


class TestDerivatives:
    @pytest.mark.parametrize("make", ALL_DISCRETE)
    def test_gradient_is_mean(self, make):
        spec = make()
        grad, _, _ = derivatives_at_zero(spec)
        assert abs(np.imag(grad[0]) - exact_mean(spec)[0]) < 1e-9
        assert abs(np.real(grad[0])) < 1e-9

    @pytest.mark.parametrize("make", ALL_DISCRETE)
    def test_hessian_is_variance(self, make):
        spec = make()
        _, hess, _ = derivatives_at_zero(spec)
        assert abs(-np.real(hess[0, 0]) - variance_series(spec)) < 1e-9

    @pytest.mark.parametrize("make", ALL_DISCRETE)
    def test_third_derivative_is_third_cumulant(self, make):
        # exact-moment slope (E[Y_2n^3] - E[Y_n^3]) / n from the step oracle
        spec = make()
        n = 256
        slope = (step_moments(spec, 2 * n, 3) - step_moments(spec, n, 3)) / n
        _, _, third = derivatives_at_zero(spec)
        assert abs(np.real(1j * third) - slope) < 1e-9
        assert abs(third_cumulant_rate(spec) - slope) < 1e-9

    def test_ct_gradient_is_reward_rate(self):
        ct = ct_two_state(centered=False)
        grad, _, _ = derivatives_at_zero(ct)
        assert abs(np.imag(grad[0]) - 1.0 / 3.0) < 1e-9

    def test_taylor_slope(self, two_state):
        # |lambda(z) - 1 + sigma^2 z^2 / 2| = O(|z|^3)
        sigma2 = variance_series(two_state)
        zs = np.logspace(-3, -1, 15)
        summary = lambda_branch(two_state, np.concatenate([[0.0], zs]))
        resid = np.abs(summary.lam[1:] - 1.0 + sigma2 * zs ** 2 / 2.0)
        slope = np.polyfit(np.log(zs), np.log(resid), 1)[0]
        assert slope >= 2.9


class TestExpansion:
    @pytest.mark.parametrize("make", ALL_DISCRETE)
    def test_identity(self, make):
        spec = make()
        for z in np.linspace(-1.0, 1.0, 9):
            for n in (1, 5, 20, 50):
                lhs, main, rem, _ = spectral_expansion(spec, z, n)
                assert abs(lhs - (main + rem)) <= 1e-9

    def test_remainder_vanishes_at_zero(self, two_state):
        _, _, rem, _ = spectral_expansion(two_state, 0.0, 10)
        assert abs(rem) <= 1e-12

    def test_remainder_geometric_decay(self, two_state):
        z = 0.5
        ns = np.array([5, 10, 20, 40])
        rems = []
        for n in ns:
            rems.append(abs(spectral_expansion(two_state, z, int(n))[2]))
        kappa = spectral_expansion(two_state, z, 5)[3]
        mask = np.array(rems) > 1e-300
        slope = np.polyfit(ns[mask], np.log(np.array(rems)[mask]), 1)[0]
        assert abs(slope - np.log(kappa)) < 0.05

    def test_lhs_is_characteristic_function(self, two_state):
        # cross-check against brute-force n-fold convolution over paths
        z, n = 0.7, 3
        states = [0, 1]
        total = 0.0 + 0.0j
        P = two_state.P
        for x0 in states:
            for x1 in states:
                for x2 in states:
                    for x3 in states:
                        w = two_state.pi[x0] * P[x0, x1] * P[x1, x2] * P[x2, x3]
                        y = sum(two_state.increments[(a, b)].mean[0, 0]
                                for a, b in [(x0, x1), (x1, x2), (x2, x3)])
                        total += w * np.exp(1j * z * y)
        lhs = spectral_expansion(two_state, z, n)[0]
        assert lhs == pytest.approx(total, abs=1e-12)


class TestNonlattice:
    def test_lattice_pm1_radius_one_at_pi(self):
        # span 2: |cf| = 1 at zeta = pi, and at 2 pi for the integer lattice
        spec = lattice_pm1()
        rho, worst = nonlattice_scan(spec, np.array([2.0 * np.pi]))
        assert abs(rho - 1.0) < 1e-9

    def test_gaussian_strictly_contracting(self):
        spec = gaussian_iid()
        rho, _ = nonlattice_scan(spec, np.linspace(0.1, 10.0, 100))
        assert rho < 1.0 - 1e-3
        assert rho < NONLATTICE_RHO_MAX

    def test_zero_rejected(self, two_state):
        with pytest.raises(ValueError):
            nonlattice_scan(two_state, np.array([0.0, 1.0]))


def _lattice_runs(seed, S, transient):
    """(kernel, runs, span) of a random lattice spec from (a, beta, span).

    Every live atom is a + beta(i) - beta(j) + k span with k an integer;
    edge (0, 0)'s run holds k = 0, 1, 3. Dead atoms, which detect_lattice
    must ignore, are added at generic reals: zero-probability atoms in live
    runs, laws on P = 0 pairs and, with transient, the laws out of an extra
    state that nothing enters (pi = 0 there). runs maps (i, j) to a list of
    (p, value) or to a Gaussian law.
    """
    rng = np.random.default_rng(seed)
    P = random_kernel(rng, S)
    keep = np.eye(S, dtype=bool) | np.roll(np.eye(S, dtype=bool), 1, 1)
    P = np.where(keep | (rng.random((S, S)) < 0.5), P, 0.0)
    P = P / P.sum(axis=1, keepdims=True)
    if transient:
        P = np.block([[P, np.zeros((S, 1))], [random_kernel(rng, S + 1)[-1:]]])
    n = len(P)
    a, beta, span = rng.normal(), rng.normal(size=n), rng.uniform(0.2, 3.0)
    runs = {}
    for i, j in np.ndindex(n, n):
        if P[i, j] == 0 or i == S:
            if P[i, j] > 0 or rng.random() < 0.5:
                runs[(i, j)] = gaussian([rng.normal()], [[1.0]])
            continue
        ks = [0, 1, 3] if i == j == 0 else rng.integers(-3, 4, size=int(
            rng.integers(1, 4)))
        p = rng.dirichlet(np.ones(len(ks)))
        runs[(i, j)] = [(q, a + beta[i] - beta[j] + k * span)
                        for q, k in zip(p, ks)]
        if rng.random() < 0.3:
            runs[(i, j)].insert(int(rng.integers(len(ks) + 1)),
                                (0.0, rng.normal()))
    return StochasticKernel(states=tuple(range(n)), P=P), runs, span


def _runs_spec(kernel, runs):
    def law(run):
        if not isinstance(run, list):
            return run
        if len(run) == 1:
            return deterministic([run[0][1]])
        return mixture([(p, [v]) for p, v in run])
    return MapSpec(kernel=kernel, increments={e: law(r)
                                              for e, r in runs.items()})


class TestNonlatticeCertificate:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 5), st.booleans())
    def test_lattice_certificate_property(self, seed, S, transient):
        kernel, runs, span = _lattice_runs(seed, S, transient)
        spec = _runs_spec(kernel, runs)
        report = detect_lattice(spec)
        assert report.is_lattice and report.span > 0
        # the generating span is a multiple of the reported one
        assert abs(span / report.span - round(span / report.span)) < 1e-6
        pi = spec.pi
        for (i, j), run in runs.items():
            if not isinstance(run, list) or pi[i] * spec.P[i, j] == 0:
                continue
            for p, v in run:
                if p > 0:
                    resid = v + report.beta[j] - report.beta[i] - report.shift
                    k = resid / report.span
                    assert abs(k - round(k)) * report.span < 1e-8
        passed, evidence = nonlattice_certificate(spec, DEFAULT_GRID)
        assert not passed
        assert evidence["lattice"] == {"span": report.span,
                                       "shift": report.shift}
        assert evidence["worst_zeta"] == 2.0 * np.pi / report.span
        assert evidence["rho_hat"] >= 1.0 - 1e-9
        # one live atom moved off the lattice makes the spec nonlattice: its
        # gap to a second atom of the run is no rational multiple of the
        # third's
        run = runs[(0, 0)]
        m = next(k for k, (p, _) in enumerate(run) if p > 0)
        run[m] = (run[m][0], run[m][1] + span * np.sqrt(2.0) / 7.0)
        moved = _runs_spec(kernel, runs)
        assert not detect_lattice(moved).is_lattice
        assert nonlattice_certificate(moved, DEFAULT_GRID)[1]["lattice"] is None

    def test_span_zero_reports_first_grid_point(self):
        # Y_n - n a = X_0 - X_n stays bounded (a = 1, then a = 0): the
        # radius is 1 at every zeta
        kernel = StochasticKernel(states=(0, 1), P=np.full((2, 2), 0.5))
        spec = MapSpec(kernel=kernel, increments={
            (i, j): deterministic([1.0 + i - j]) for i in range(2)
            for j in range(2)})
        passed, evidence = nonlattice_certificate(spec, DEFAULT_GRID)
        assert not passed and evidence["lattice"]["span"] == 1.0
        spec = MapSpec(kernel=kernel, increments={
            (i, j): deterministic([0.5 * (i - j)]) for i in range(2)
            for j in range(2)})
        passed, evidence = nonlattice_certificate(spec, DEFAULT_GRID)
        assert not passed
        assert evidence["lattice"] == {"span": 0.0, "shift": 0.0}
        assert evidence["worst_zeta"] == DEFAULT_GRID[0]
        assert abs(evidence["rho_hat"] - 1.0) < 1e-12

    def test_nonlattice_specs_use_the_scan(self):
        for spec in (gaussian_iid(), skewed_mixture(), ct_two_state()):
            passed, evidence = nonlattice_certificate(spec, DEFAULT_GRID)
            assert passed and evidence["lattice"] is None
            assert (evidence["rho_hat"], evidence["worst_zeta"]) == (
                nonlattice_scan(spec, DEFAULT_GRID))


LAW_KINDS = ("int", "real", "gauss", "mix")    # "int" makes a lattice spec
DEFAULT_GRID = np.linspace(*NONLATTICE_GRID)     # nonlattice-scan's default
SPEC_FIXTURES = [name for name in fixtures.REGISTRY
                 if name != "mean_contrast_problem"]


def _scan_law(rng, kind):
    if kind == "int":
        return deterministic([float(rng.integers(-2, 3))])
    if kind == "real":
        return deterministic([rng.normal()])
    if kind == "gauss":
        return gaussian([rng.normal()], [[rng.uniform(0.25, 2.0)]])
    p = rng.dirichlet(np.ones(3))
    return mixture([(q, [v]) for q, v in zip(p, rng.normal(0.0, 1.5, 3))])


def _scan_spec(seed, S, kind, sparse, centered):
    """Random d = 1 spec; kind is one of LAW_KINDS or "any" (per edge).

    A sparse kernel keeps the ring and the self-loops plus random chords,
    so it stays irreducible and aperiodic.
    """
    rng = np.random.default_rng(seed)
    P = random_kernel(rng, S)
    if sparse:
        ring = np.eye(S, dtype=bool) | np.roll(np.eye(S, dtype=bool), 1, 1)
        P = np.where(ring | (rng.random((S, S)) < 0.2), P, 0.0)
        P = P / P.sum(axis=1, keepdims=True)
    incs = {(int(i), int(j)): _scan_law(
        rng, LAW_KINDS[rng.integers(4)] if kind == "any" else kind)
        for i, j in zip(*np.nonzero(P))}
    return MapSpec(kernel=StochasticKernel(states=tuple(range(S)), P=P),
                   increments=incs, centered=centered)


def _scan_ct(seed, S, jumps):
    rng = np.random.default_rng(seed)
    G = rng.uniform(0.1, 1.0, size=(S, S))
    np.fill_diagonal(G, 0.0)
    np.fill_diagonal(G, -G.sum(axis=1))
    return CtMapSpec(generator=G, reward=rng.normal(size=S),
                     jump_increments=rng.normal(size=(S, S)) if jumps
                     else None, centered=True)


def _scan_grids(spec, rng):
    """The default grid, symmetric +-zeta grids (S(-zeta) is the conjugate
    of S(zeta), so their bounds tie and argmax must keep the first of the
    pair), one point, and for a lattice spec a grid ending at 2 pi / span."""
    z = np.sort(rng.uniform(0.05, 12.0, size=int(rng.integers(1, 40))))
    grids = [DEFAULT_GRID, np.ravel(np.column_stack([z, -z])),
             np.hstack([-z, z]), z[:1]]
    report = None if isinstance(spec, CtMapSpec) else detect_lattice(spec)
    if report is not None and report.is_lattice and report.span > 0:
        # |lambda(2 pi / span)| = 1, and the grid ends exactly there
        grids.append(np.linspace(0.1, 2.0 * np.pi / report.span, 200))
    return grids


class TestPrunedScan:
    """The pruned scan returns the full scan's values, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 3, 8]),
           st.sampled_from(LAW_KINDS + ("any",)), st.booleans(),
           st.booleans())
    def test_discrete_matches_full_scan(self, seed, S, kind, sparse,
                                        centered):
        spec = _scan_spec(seed, S, kind, sparse, centered)
        for K in _scan_grids(spec, np.random.default_rng(seed + 1)):
            assert nonlattice_scan(spec, K) == full_nonlattice_scan(spec, K)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 3, 8]),
           st.booleans())
    def test_ct_matches_full_scan(self, seed, S, jumps):
        spec = _scan_ct(seed, S, jumps)
        for K in _scan_grids(spec, np.random.default_rng(seed + 1)):
            assert nonlattice_scan(spec, K) == full_nonlattice_scan(spec, K)

    @pytest.mark.parametrize("name", SPEC_FIXTURES)
    def test_fixtures_match_full_scan(self, name):
        spec = getattr(fixtures, name)()
        for K in _scan_grids(spec, np.random.default_rng(0)):
            assert nonlattice_scan(spec, K) == full_nonlattice_scan(spec, K)

    def test_empty_grid(self, two_state):
        assert nonlattice_scan(two_state, np.array([])) == (-1.0, None)


class TestScanWork:
    """Eigenvalues are computed only where the norm bound cannot rule the
    point out."""

    @staticmethod
    def _evaluated(monkeypatch, spec, K):
        count = []
        eigvals = np.linalg.eigvals

        def counting(a):
            count.append(1 if np.ndim(a) == 2 else len(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        result = nonlattice_scan(spec, K)
        monkeypatch.undo()
        assert result == full_nonlattice_scan(spec, K)
        return sum(count)

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_gaussian_s32_evaluates_few(self, monkeypatch, seed):
        # the benchmark's d32_gauss recipe: ring, self-loop and chords to
        # width 4, Dirichlet + 0.02 rows, N(m, s2) edges with m ~ N(0, 1)
        # and s2 ~ U(0.25, 2), centred
        rng = np.random.default_rng(seed)
        S = 32
        P = np.zeros((S, S))
        for i in range(S):
            cols = {i, (i + 1) % S}
            while len(cols) < 4:
                cols.add(int(rng.integers(S)))
            cols = sorted(cols)
            P[i, cols] = rng.dirichlet(np.ones(len(cols))) + 0.02
        P = P / P.sum(axis=1, keepdims=True)
        incs = {(int(i), int(j)): gaussian([rng.normal()],
                                           [[rng.uniform(0.25, 2.0)]])
                for i, j in zip(*np.nonzero(P))}
        spec = MapSpec(kernel=StochasticKernel(states=tuple(range(S)), P=P),
                       increments=incs, centered=True)
        assert self._evaluated(monkeypatch, spec, DEFAULT_GRID) <= 8

    def test_lattice_evaluates_every_point(self, monkeypatch):
        # every |phi| is 1, so every bound is 1 and no point is ruled out
        K = np.linspace(np.pi / 200, np.pi, 200)
        assert self._evaluated(monkeypatch, lattice_pm1(), K) >= 200


class TestNonFinite:
    def test_ct_overflow_raises(self, ct_two_state):
        # exp(A(zeta)) stops being finite between 1e20 and 1e25
        assert np.isfinite(_fourier_matrix(ct_two_state, [1e20])).all()
        with pytest.raises(NonFiniteOperator):
            _fourier_matrix(ct_two_state, [1.0, 1e25])

    def test_discrete_overflow_raises(self):
        # the overflow is the error, with no numpy warning before it
        spec = MapSpec(kernel=StochasticKernel(states=(0,), P=np.ones((1, 1))),
                       increments={(0, 0): deterministic([1e10])})
        with warnings.catch_warnings(), pytest.raises(NonFiniteOperator):
            warnings.simplefilter("error")
            _fourier_matrix(spec, [1e300])

    @pytest.mark.parametrize("K", [[1e25], [1.0, 1e25, 2.0]])
    def test_scan_raises_before_pruning(self, ct_two_state, K):
        # a NaN bound compares False and would read as ruled out
        with pytest.raises(NonFiniteOperator):
            nonlattice_scan(ct_two_state, np.array(K))


class TestContour:
    def test_zeta_zero_recovers_projector(self, two_state):
        assert contour_crosscheck(two_state, 0.0, 5) <= 1e-8

    @pytest.mark.parametrize("z", [0.1, 0.3, -0.2])
    def test_small_zeta_residual(self, two_state, z):
        assert contour_crosscheck(two_state, z, 10) <= 1e-6

    def test_singular_contour(self, two_state):
        summary = lambda_branch(two_state, np.array([0.0, 0.2]))
        lam = abs(summary.lam[1])
        with pytest.raises(ValueError, match="contour"):
            contour_crosscheck(two_state, 0.2, 5, kappa=lam)
