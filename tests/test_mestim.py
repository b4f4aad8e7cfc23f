import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maplab import montecarlo
from maplab.chain_core import StochasticKernel
from maplab.errors import ConditionViolated
from maplab.fixtures import (MEAN_CONTRAST_THETAS, mean_contrast_kernel,
                             mean_contrast_problem, two_state)
from maplab.map_model import variance_series
from maplab.mestim import (ContrastFamily, _edge_expectation,
                           _newton_on_counts, build_problem,
                           estimator_be_check, mean_contrast_family)
from maplab.montecarlo import simulate_edge_counts

from conftest import random_kernel, stepwise_edge_counts

XI_OCCUPATION = np.array([[0.0, 1.0], [0.0, 1.0]])


@pytest.fixture(scope="module")
def problem():
    return mean_contrast_problem()


class TestBuildProblem:
    def test_alpha0_closed_form(self, problem):
        # alpha0 = E[xi] = pi(state b) = 0.3 theta / (0.5 theta) = 0.6
        for theta in problem.thetas:
            assert problem.alpha0[theta] == pytest.approx(0.6, abs=1e-12)

    def test_m_is_two(self, problem):
        for theta in problem.thetas:
            assert problem.m[theta] == pytest.approx(2.0)

    def test_sigma1_is_twice_occupation_sigma(self, problem):
        # F1 = -2(xi - alpha0), so sigma_1 = 2 sigma_xi and tau = sigma_xi
        for theta in problem.thetas:
            spec = two_state() if theta == 1.0 else None
            kernel = mean_contrast_kernel(theta)
            from maplab.increments import deterministic
            from maplab.map_model import MapSpec
            incs = {(i, j): deterministic([XI_OCCUPATION[i, j]])
                    for i in range(2) for j in range(2)}
            occ = MapSpec(kernel=kernel, increments=incs, centered=True)
            sigma_xi = np.sqrt(variance_series(occ))
            assert problem.sigma1[theta] == pytest.approx(2.0 * sigma_xi,
                                                          abs=1e-9)
            assert problem.tau[theta] == pytest.approx(sigma_xi, abs=1e-9)

    def test_theta_one_matches_two_state_fixture(self, problem):
        assert problem.tau[1.0] == pytest.approx(np.sqrt(0.72), abs=1e-10)

    def test_iid_reduction_tau_is_std(self):
        # i.i.d. rows: tau^2 = Var(xi) classical M-estimation
        P = np.full((2, 2), 0.5)
        kernels = {1.0: StochasticKernel(states=(0, 1), P=P)}
        prob = build_problem(mean_contrast_family(XI_OCCUPATION), kernels)
        assert prob.alpha0[1.0] == pytest.approx(0.5)
        assert prob.tau[1.0] == pytest.approx(0.5)    # std of Bernoulli(1/2)

    def test_two_root_family_rejected(self):
        # F1 = 3 (alpha^2 - 1): roots at +-1 inside the domain
        fam = ContrastFamily(
            name="double_well", alpha_domain=(-2.0, 2.0),
            F=lambda a, i, j: np.asarray(a, dtype=float) ** 3
            - 3.0 * np.asarray(a, dtype=float),
            F1=lambda a, i, j: 3.0 * np.asarray(a, dtype=float) ** 2 - 3.0,
            F2=lambda a, i, j: 6.0 * np.asarray(a, dtype=float),
            W=lambda i: 6.0)
        kernels = {1.0: mean_contrast_kernel(1.0)}
        with pytest.raises(ConditionViolated) as err:
            build_problem(fam, kernels)
        assert err.value.condition == "V1"

    def test_no_gap_rejected(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        kernels = {1.0: StochasticKernel(states=(0, 1), P=P)}
        with pytest.raises(ConditionViolated) as err:
            build_problem(mean_contrast_family(XI_OCCUPATION), kernels)
        assert err.value.condition == "M"

    def test_eq16_bounded(self, problem):
        # n |sigma^2 - E[Y_n^2]/n| stays bounded along powers of two
        for theta in problem.thetas:
            assert problem.eq16_max[theta] < 100.0

    def test_sigma1_continuous_across_grid(self, problem):
        vals = [problem.sigma1[t] for t in problem.thetas]
        jumps = np.abs(np.diff(vals))
        assert np.max(jumps) < 10 * 0.2 * 5.0   # grid spacing * slope bound

    def test_d_ball_formula(self, problem):
        # d = inf m / (4 (E[W] + 1)) with W = 1: 2 / 8 = 0.25
        assert problem.d_ball == pytest.approx(0.25)


class TestEdgeExpectation:
    def test_grid_equals_pointwise(self, problem):
        # build_problem's V1 scan evaluates the whole grid in one call
        grid = np.linspace(-2.0, 3.0, 512)
        for theta in problem.thetas:
            kernel = problem.kernels[theta]
            for func in (problem.family.F1, problem.family.F2):
                assert np.array_equal(
                    _edge_expectation(kernel, func, grid),
                    [_edge_expectation(kernel, func, a) for a in grid])


def loop_derivative_check(family, S, rng):
    """The point-by-point finite-difference certificate (the oracle)."""
    lo, hi = family.alpha_domain
    for _ in range(64):
        a = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))
        i, j = rng.integers(0, S, size=2)
        h = 1e-6 * max(1.0, abs(a))
        fd = (family.F(a + h, i, j) - family.F(a - h, i, j)) / (2 * h)
        if abs(fd - family.F1(a, i, j)) > 1e-6 * max(1.0, abs(fd)):
            return f"F1 disagrees with finite difference at alpha={a:.4f}"


def loop_lipschitz_check(family, S, rng):
    """The point-by-point Lipschitz-witness certificate (the oracle)."""
    lo, hi = family.alpha_domain
    pad = 0.05 * (hi - lo)
    for _ in range(256):
        a, b = rng.uniform(lo + pad, hi - pad, size=2)
        i, j = rng.integers(0, S, size=2)
        lhs = abs(family.F2(a, i, j) - family.F2(b, i, j))
        rhs = abs(a - b) * (family.W(i) + family.W(j)) + 1e-12
        if lhs > rhs:
            return f"Lipschitz witness violated at ({a:.4f}, {b:.4f})"


class TestCertificates:
    """The certificates test stacked arrays on the stream of the loop and
    report its first failing point."""

    XI = np.arange(9.0).reshape(3, 3) / 8.0

    def family(self, bad_state=None):
        xi = self.XI
        off = (lambda i: np.asarray(i) == bad_state)
        return ContrastFamily(
            name="probe", alpha_domain=(-2.0, 3.0),
            F=lambda a, i, j: (xi[i, j] - a) ** 2,
            # F1 is off by 1 where j is the bad state
            F1=lambda a, i, j: -2.0 * (xi[i, j] - a) + off(j),
            # F2 has slope 6 where i is the bad state, with witness 0
            F2=lambda a, i, j: 2.0 + 6.0 * np.asarray(a) * off(i),
            W=lambda i: 0.0 * np.asarray(i))

    def kernels(self):
        return {1.0: StochasticKernel(states=(0, 1, 2), P=np.full((3, 3), 1 / 3))}

    @pytest.mark.parametrize("bad_state", [None, 0, 1, 2])
    def test_derivative_against_loop(self, bad_state):
        fam = self.family(bad_state)
        want = loop_derivative_check(fam, 3, np.random.default_rng(0))
        rng = np.random.default_rng(0)
        if want is None:
            fam.check_derivative_consistency(self.kernels(), rng)
            ref = np.random.default_rng(0)
            loop_derivative_check(fam, 3, ref)
            assert rng.random() == ref.random()     # the same draws
        else:
            with pytest.raises(ConditionViolated) as err:
                fam.check_derivative_consistency(self.kernels(), rng)
            assert err.value.condition == "F-derivative"
            assert want in str(err.value)

    @pytest.mark.parametrize("bad_state", [None, 0, 1, 2])
    def test_lipschitz_against_loop(self, bad_state):
        fam = self.family(bad_state)
        want = loop_lipschitz_check(fam, 3, np.random.default_rng(1))
        rng = np.random.default_rng(1)
        if want is None:
            fam.check_lipschitz_witness(3, rng)
            ref = np.random.default_rng(1)
            loop_lipschitz_check(fam, 3, ref)
            assert rng.random() == ref.random()
        else:
            with pytest.raises(ConditionViolated) as err:
                fam.check_lipschitz_witness(3, rng)
            assert err.value.condition == "V5"
            assert want in str(err.value)


def _alpha_hat(problem, theta, n, seed):
    """Newton's root of M_n^(1) on one path of length n under P_theta, from
    alpha0."""
    counts = simulate_edge_counts(problem.kernels[theta], n, 1, seed)
    family = problem.family
    alpha, resid, ok = _newton_on_counts(family, counts,
                                         problem.alpha0[theta],
                                         family.alpha_domain)
    assert ok[0]
    return alpha[0], resid[0], counts[0]


class TestEstimate:
    def test_exact_sample_mean_identity(self, problem):
        # quadratic contrast: alpha_hat is exactly the occupation frequency
        alpha, resid, counts = _alpha_hat(problem, 1.0, 512, 77)
        freq = counts[:, 1].sum() / 512.0
        assert abs(alpha - freq) < 1e-12
        assert resid <= 1e-10

    def test_single_observation(self, problem):
        alpha = _alpha_hat(problem, 1.0, 1, 3)[0]
        assert alpha in (pytest.approx(0.0, abs=1e-12),
                         pytest.approx(1.0, abs=1e-12))

    def test_scaling_equivariance(self, problem):
        # multiplying F by c > 0 leaves alpha_hat and tau unchanged (sigma1
        # and m both scale by c)
        xi = XI_OCCUPATION
        c = 7.0
        fam_scaled = ContrastFamily(
            name="scaled", alpha_domain=(-2.0, 3.0),
            F=lambda a, i, j: c * (xi[i, j] - a) ** 2,
            F1=lambda a, i, j: -2.0 * c * (xi[i, j] - a),
            F2=lambda a, i, j: 2.0 * c * np.ones_like(np.asarray(a, dtype=float)),
            W=lambda i: c)
        kernels = {t: mean_contrast_kernel(t) for t in (1.0,)}
        prob_scaled = build_problem(fam_scaled, kernels)
        assert _alpha_hat(prob_scaled, 1.0, 256, 13)[0] == pytest.approx(
            _alpha_hat(problem, 1.0, 256, 13)[0], abs=1e-10)
        assert prob_scaled.tau[1.0] == pytest.approx(problem.tau[1.0], abs=1e-9)


class TestEdgeCounts:
    def test_counts_sum_to_n(self, problem):
        counts = simulate_edge_counts(problem.kernels[1.0], 100, 50, 1)
        assert counts.shape == (50, 2, 2)
        np.testing.assert_array_equal(counts.sum(axis=(1, 2)), 100)

    def test_deterministic(self, problem):
        a = simulate_edge_counts(problem.kernels[0.8], 64, 20, 9)
        b = simulate_edge_counts(problem.kernels[0.8], 64, 20, 9)
        np.testing.assert_array_equal(a, b)

    def test_edge_frequencies(self, problem):
        kernel = problem.kernels[1.0]
        counts = simulate_edge_counts(kernel, 200, 2000, 2)
        freqs = counts.sum(axis=0) / counts.sum()
        expected = kernel.pi[:, None] * kernel.P
        np.testing.assert_allclose(freqs, expected, atol=0.01)


class TestEdgeCountOracle:
    """simulate_edge_counts equals the explicit step loop bit for bit."""

    @pytest.mark.parametrize("seed", [1, 31, -5])
    def test_problem_kernels(self, problem, seed):
        for theta in problem.thetas:
            kernel = problem.kernels[theta]
            np.testing.assert_array_equal(
                simulate_edge_counts(kernel, 40, 300, seed),
                stepwise_edge_counts(kernel, 40, 300, seed))

    @pytest.mark.parametrize("case", range(6))
    def test_random_kernels(self, case):
        rng = np.random.default_rng(case)
        S = int(rng.integers(1, 7))
        kernel = StochasticKernel(states=tuple(range(S)),
                                  P=random_kernel(rng, S))
        mu = rng.dirichlet(np.ones(S)) if case % 2 else None
        np.testing.assert_array_equal(
            simulate_edge_counts(kernel, 25, 200, 10 * case, mu=mu),
            stepwise_edge_counts(kernel, 25, 200, 10 * case, mu=mu))


class TestEdgeCountHorizons:
    """Edge counts of one chain per path read at a list of horizons, on the
    contract of simulate_discrete: at=[n] is the plain call, the first
    horizon is the call to it alone, and a later horizon's counts are the
    running counts at the end of its segment (the last draw before each
    horizon is cut there)."""

    HORIZONS = [5, 17, 40]

    @pytest.mark.parametrize("case", range(6))
    def test_against_single_calls_and_oracle(self, case):
        rng = np.random.default_rng(case)
        S = int(rng.integers(1, 7))
        kernel = StochasticKernel(states=tuple(range(S)),
                                  P=random_kernel(rng, S))
        mu = rng.dirichlet(np.ones(S)) if case % 2 else None
        hs, seed = self.HORIZONS, 10 * case - 7
        counts = simulate_edge_counts(kernel, hs[-1], 200, seed, mu=mu, at=hs)
        assert counts.shape == (len(hs), 200, S, S)
        np.testing.assert_array_equal(
            counts[0], simulate_edge_counts(kernel, hs[0], 200, seed, mu=mu))
        for n in hs:
            np.testing.assert_array_equal(
                simulate_edge_counts(kernel, n, 200, seed, mu=mu, at=[n])[0],
                simulate_edge_counts(kernel, n, 200, seed, mu=mu))
        np.testing.assert_array_equal(
            counts, stepwise_edge_counts(kernel, hs, 200, seed, mu=mu))
        assert (np.diff(counts, axis=0) >= 0).all()
        for h, c in zip(hs, counts):
            np.testing.assert_array_equal(c.sum(axis=(1, 2)), h)

    def test_rejects_unsorted(self, problem):
        with pytest.raises(ValueError, match="increase strictly"):
            simulate_edge_counts(problem.kernels[1.0], 40, 10, 0,
                                 at=[17, 5, 40])


def decoded_edge_counts(kernel, horizons, reps, seed, mu=None):
    """(len(horizons), reps, S, S) edge counts of simulate_edge_counts'
    stream, from the states of every draw of montecarlo._chain_steps run to
    the horizons: the base-S digits x, X_1, ..., X_B of its row, cut to the
    block's steps left (test oracle for the count tables)."""
    rng = montecarlo._philox(f"{kernel.content_hash}:{seed}".encode())
    S = kernel.n_states
    B = montecarlo._path_length(S, reps)
    X = montecarlo._initial_states(kernel, mu, reps, rng)
    walk = [X]
    for rows, _, m, _ in montecarlo._chain_steps(kernel.P, X, horizons[-1],
                                                 rng, horizons):
        for j, row in enumerate(rows):
            x, *states = np.unravel_index(row, (S,) * (B + 1))
            np.testing.assert_array_equal(x, walk[-1])
            walk.extend(states[:min(B, m - j * B)])
    walk = np.array(walk)
    counts = np.zeros((len(horizons), reps, S, S), dtype=np.int64)
    paths = np.arange(reps)
    for c, h in zip(counts, horizons):
        np.add.at(c, (paths, walk[:h], walk[1:h + 1]), 1)
    return counts


class TestCountTables:
    """Whole draws add a row of a per-call count table; the counts equal a
    tally of the decoded states of the same draws bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(S=st.integers(1, 40), reps=st.integers(1, 50),
           n=st.integers(1, 40), reads=st.lists(st.integers(0, 99),
                                                max_size=4),
           grid=st.booleans(), mu=st.booleans(),
           seed=st.integers(-2 ** 63, 2 ** 63 - 1))
    @example(S=33, reps=7, n=9, reads=[3], grid=False, mu=False, seed=3)
    @example(S=3, reps=40000, n=3, reads=[0], grid=True, mu=True, seed=-4)
    def test_equals_decoded_tally(self, S, reps, n, reads, grid, mu, seed):
        # horizons at 0, inside draws (reads), on draw boundaries (grid), n
        # off the grid (a cut last draw); B = 1 in the examples, by the
        # state count and by the path count
        rng = np.random.default_rng(abs(seed) % 2 ** 32)
        kernel = StochasticKernel(states=tuple(range(S)),
                                  P=random_kernel(rng, S))
        B = montecarlo._path_length(S, reps)
        hs = {r % (n + 1) for r in reads} | {n}
        hs = sorted(hs | set(range(B, n, B)) if grid else hs)
        mu = rng.dirichlet(np.ones(S)) if mu else None
        got = simulate_edge_counts(kernel, n, reps, seed, mu=mu, at=hs)
        np.testing.assert_array_equal(
            got, decoded_edge_counts(kernel, hs, reps, seed, mu=mu))

    @pytest.mark.parametrize("hs", [[40001], [8, 4095 * 8 + 3, 70001]])
    def test_int16_flush(self, hs):
        # a near-absorbing state: a path's (0, 0) count passes 32767, so the
        # int16 tally must go into int64 every 4095 draws of B = 8 steps
        kernel = StochasticKernel(states=(0, 1), P=np.array(
            [[1 - 1e-4, 1e-4], [0.5, 0.5]]))
        assert montecarlo._path_length(2, 3) == 8
        got = simulate_edge_counts(kernel, hs[-1], 3, 5, at=hs)
        assert got[-1, :, 0, 0].max() > 32767
        np.testing.assert_array_equal(
            got, decoded_edge_counts(kernel, hs, 3, 5))

    @pytest.mark.parametrize("S", [2, 4, 8])
    def test_without_table(self, S, monkeypatch):
        # no kernel gets a table: every draw is decoded, with the same counts
        kernel = StochasticKernel(states=tuple(range(S)), P=random_kernel(
            np.random.default_rng(S), S))
        hs = [5, 16, 77]
        want = simulate_edge_counts(kernel, 77, 300, S, at=hs)
        monkeypatch.setattr(montecarlo, "_TALLY_WIDTH", 0)
        np.testing.assert_array_equal(
            simulate_edge_counts(kernel, 77, 300, S, at=hs), want)
        np.testing.assert_array_equal(
            want, decoded_edge_counts(kernel, hs, 300, S))

    @pytest.mark.parametrize("S, extra, decoded", [
        (2, [], 0), (4, [], 0), (2, [3], 1), (4, [3, 4], 1)])
    def test_decoded_draws(self, S, extra, decoded, monkeypatch):
        # whole draws add table rows; only the cut last draw of a segment
        # whose length is off the draw grid is decoded, into its steps left,
        # so horizons on the grid decode nothing
        calls = []
        add = montecarlo._add_edges

        def counting(counts, edges):
            calls.append(len(edges))
            return add(counts, edges)

        monkeypatch.setattr(montecarlo, "_add_edges", counting)
        kernel = StochasticKernel(states=tuple(range(S)), P=random_kernel(
            np.random.default_rng(S), S))
        B = montecarlo._path_length(S, 500)
        assert B > 4
        on_grid = [B, 3 * B, 8 * B]
        hs = sorted(on_grid + extra)
        simulate_edge_counts(kernel, hs[-1], 500, 1, at=hs)
        cuts = [(h - h0) % B for h0, h in zip([0] + hs, hs)]
        assert calls == [r for r in cuts if r]
        assert bool(calls) == bool(decoded)
        calls.clear()
        simulate_edge_counts(kernel, 8 * B + 2, 500, 1, at=on_grid[:2] + [
            8 * B + 2])
        assert calls == [2]


class TestBeCheck:
    def test_flat_and_gamma_decreasing(self, problem):
        result = estimator_be_check(problem, [64, 256], 20000, 31)
        records = result.records
        assert result.passed
        gammas = {}
        for r in records:
            gammas.setdefault(r.n, []).append(r.gamma_hat)
        assert max(gammas[256]) <= max(gammas[64])

    def test_all_thetas_covered(self, problem):
        records = estimator_be_check(problem, [64], 2000, 1).records
        assert sorted(set(r.theta for r in records)) == list(MEAN_CONTRAST_THETAS)

    def test_first_horizon_matches_single_list(self, problem):
        # the first horizon's counts are those of a run to it alone
        single = estimator_be_check(problem, [64], 2000, 3).records
        both = estimator_be_check(problem, [64, 256], 2000, 3).records
        assert single == [r for r in both if r.n == 64]

    def test_unsorted_and_repeated_list(self, problem):
        # records keep the list's order; a repeated n reads the same counts
        records = estimator_be_check(problem, [256, 64, 256], 2000,
                                     3).records
        by_theta = estimator_be_check(problem, [64, 256], 2000, 3).records
        want = {(r.theta, r.n): r for r in by_theta}
        assert records == [want[theta, n] for theta in problem.thetas
                           for n in (256, 64, 256)]
