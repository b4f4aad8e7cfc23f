import dataclasses

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from maplab import limit_checks
from maplab.chain_core import StochasticKernel
from maplab.errors import (DegenerateVariance, LatticeSpec, TooFewPaths,
                           UnsupportedInitial)
from maplab.fixtures import (birth_death_5, ct_two_state, gaussian_iid,
                             iid_rademacher, lattice_pm1, skewed_mixture,
                             two_state)
from maplab.increments import deterministic, gaussian
from maplab.limit_checks import (asymptotic_bias, berry_esseen_check,
                                 clt_check, ct_limit_check, ecdf_se,
                                 edgeworth_cdf, edgeworth_check,
                                 kolmogorov_distance, llt_check,
                                 rho_mixing_check, triangular_bump)
from maplab.map_model import CtMapSpec, MapSpec, detect_lattice
from maplab.montecarlo import increment_panel


class TestKolmogorov:
    def test_exact_gaussian_quantiles(self):
        # N points at the i/(N+1) Gaussian quantiles: distance = 1/(N+1)
        N = 999
        sample = ndtri(np.arange(1, N + 1) / (N + 1))
        d = kolmogorov_distance(sample)
        assert d == pytest.approx(1.0 / (N + 1), abs=2e-3)

    def test_point_mass(self):
        # all mass at 0 vs Phi: sup deviation is 0.5
        d = kolmogorov_distance(np.zeros(100))
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_shifted_sample_detected(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=200000)
        assert kolmogorov_distance(z) < 0.01
        assert kolmogorov_distance(z + 1.0) > 0.3

    def test_dkw_se_formula(self):
        assert ecdf_se(100000, delta=1e-3) == pytest.approx(
            np.sqrt(np.log(2000.0) / 200000.0))


class TestClt:
    def test_two_state_converges(self):
        records = clt_check(two_state(), [64, 1024], 20000, 7).records
        assert records[-1].kolmogorov < records[0].kolmogorov + 2 * records[0].se
        assert records[-1].kolmogorov < 0.03

    def test_sigma_used_is_oracle(self):
        records = clt_check(two_state(), [16], 100, 0).records
        assert records[0].sigma_used == pytest.approx(np.sqrt(0.72))

    def test_degenerate_variance(self):
        kernel = StochasticKernel(states=(0,), P=np.array([[1.0]]))
        spec = MapSpec(kernel=kernel, increments={(0, 0): deterministic([0.0])})
        with pytest.raises(DegenerateVariance):
            clt_check(spec, [8], 100, 0)

    def test_too_few_paths_before_any_draw(self, monkeypatch):
        # at 16 paths the CLT threshold reaches 1, so clt_check and
        # ct_limit_check stop before they draw; berry_esseen_check has no
        # such gate and still runs
        monkeypatch.setattr(limit_checks, "simulate_discrete", None)
        monkeypatch.setattr(limit_checks, "simulate_ct", None)
        with pytest.raises(TooFewPaths):
            clt_check(two_state(), [16], 16, 1)
        with pytest.raises(TooFewPaths):
            ct_limit_check(ct_two_state(), [16.0], 16, 1)
        monkeypatch.undo()
        assert len(berry_esseen_check(two_state(), [16, 64], 16,
                                      1).records) == 2


class TestBerryEsseen:
    def test_iid_flat(self):
        result = berry_esseen_check(iid_rademacher(), [256, 1024], 20000, 3)
        assert result.passed
        assert result.extras["B_hat"] < 1.0

    def test_records_carry_constants(self):
        records = berry_esseen_check(two_state(), [64], 5000, 1).records
        r = records[0]
        assert r.be_constant == pytest.approx(np.sqrt(64) * r.kolmogorov)


class TestEdgeworth:
    def test_correction_zero_for_symmetric(self):
        # mu3 = 0 and stationary start: corrected cdf is exactly Phi (bit check)
        a = np.linspace(-3, 3, 101)
        assert np.array_equal(edgeworth_cdf(a, 1.0, 0.0, 256), ndtr(a))

    def test_correction_helps_on_skewed(self):
        # paths chosen so the mu3 signal dominates the ECDF noise floor
        records = edgeworth_check(skewed_mixture(), [64, 256, 1024], 100000,
                                  5).records
        for r in records:
            assert r.edgeworth_residual <= r.kolmogorov

    def test_lattice_rejected_by_default(self):
        with pytest.raises(LatticeSpec):
            edgeworth_check(lattice_pm1(), [64], 1000, 0)

    def test_allow_lattice_escape(self):
        records = edgeworth_check(two_state(), [64], 2000, 0,
                                  allow_lattice=True).records
        assert len(records) == 1


class TestAsymptoticBias:
    def test_two_state_geometric_oracle(self):
        # a = (-0.3, 0.2) is the 0.5-eigenvector of P - Pi, so Z a = 2a and
        # b_mu for a point mass at state 0 is exactly -0.6
        spec = two_state()
        assert asymptotic_bias(spec, [1.0, 0.0]) == pytest.approx(-0.6)
        assert asymptotic_bias(spec, [0.0, 1.0]) == pytest.approx(0.4)

    def test_stationary_start_no_bias(self):
        spec = two_state()
        assert asymptotic_bias(spec, spec.pi) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mu", [[0.2, 0.3, 0.5], [1.5, -0.5],
                                    [float("nan"), 1.0]])
    def test_invalid_initial_law(self, mu):
        # the same check as the simulation's start draw, before any algebra
        with pytest.raises(UnsupportedInitial):
            asymptotic_bias(two_state(), mu)

    def test_uncentered_rejected(self):
        # raw occupation increments have stationary mean 0.6
        from maplab.fixtures import TWO_STATE_P
        kernel = StochasticKernel(states=(0, 1), P=TWO_STATE_P)
        incs = {(i, j): deterministic([1.0 if j == 1 else 0.0])
                for i in range(2) for j in range(2)}
        spec = MapSpec(kernel=kernel, increments=incs, centered=False)
        with pytest.raises(ValueError):
            asymptotic_bias(spec, [1.0, 0.0])

    def test_bias_improves_fit(self):
        # started at state 0, the empirical CDF shifts by ~b_mu/(sigma sqrt n)
        spec = two_state()
        mu = np.array([1.0, 0.0])
        records = edgeworth_check(spec, [256], 100000, 9, mu=mu,
                                  allow_lattice=True).records
        r = records[0]
        assert r.bias_term_used
        assert r.edgeworth_residual < r.kolmogorov


class TestLlt:
    def test_gaussian_ratio(self):
        records = llt_check(gaussian_iid(), [1024], 100000, 11).records
        r = records[0]
        assert abs(r.ratio - 1.0) <= 3 * r.mc_se

    def test_lattice_negative_control(self):
        # span-2 lattice: odd-centered bump sees no mass at even n
        bumps = [triangular_bump(0.0, 1.0), triangular_bump(1.0, 1.0)]
        records = llt_check(lattice_pm1(), [1024], 20000, 13, bumps=bumps,
                            allow_lattice=True).records
        ratios = [r.ratio for r in records]
        assert any(not 0.5 <= rho <= 1.5 for rho in ratios)

    def test_law_on_p_zero_pair_ignored(self):
        # a Gaussian law on (0, 4), where P = 0, never occurs on a path: the
        # gate used to read it as a density and pass the lattice spec
        spec = birth_death_5()
        incs = {**spec.increments, (0, 4): gaussian([0.0], [[1.0]])}
        spec = MapSpec(kernel=spec.kernel, increments=incs)
        assert detect_lattice(spec).span == pytest.approx(0.25)
        with pytest.raises(LatticeSpec):
            llt_check(spec, [256], 1000, 1)

    @pytest.mark.parametrize("check", [
        lambda paths: llt_check(gaussian_iid(), [16], paths, 1),
        lambda paths: rho_mixing_check(two_state(), [1, 2], paths, 1)])
    def test_one_path_rejected(self, check):
        # one path makes every standard error NaN
        with pytest.raises(TooFewPaths):
            check(1)
        assert all(np.isfinite(dataclasses.astuple(r)).all()
                   for r in check(2).records)

    def test_bump_integral(self):
        g = triangular_bump(0.5, 2.0)
        xs = np.linspace(-5, 6, 400001)
        numeric = np.trapezoid(g(xs), xs)
        assert numeric == pytest.approx(g.integral, rel=1e-6)


class TestRhoMixing:
    def test_two_state_bounds_hold(self):
        reports = rho_mixing_check(two_state(), [1, 2, 3, 4, 5], 50000,
                                   17).records
        for r in reports:
            assert r.vacuous or r.empirical_max <= r.bound + 4 * r.se

    def test_lag_one_vacuous(self):
        reports = rho_mixing_check(two_state(), [1], 1000, 0).records
        assert reports[0].vacuous       # ||P^0 - Pi|| = 1 certifies nothing

    def test_iid_bound_zero(self):
        reports = rho_mixing_check(iid_rademacher(), [2, 3], 50000,
                                   19).records
        for r in reports:
            assert r.bound == pytest.approx(0.0, abs=1e-12)
            assert r.empirical_max <= 4 * r.se

    def test_constant_increments_degenerate(self):
        kernel = StochasticKernel(states=(0, 1), P=np.full((2, 2), 0.5))
        incs = {(i, j): deterministic([2.0]) for i in range(2) for j in range(2)}
        spec = MapSpec(kernel=kernel, increments=incs)
        reports = rho_mixing_check(spec, [2], 1000, 0).records
        assert reports[0].degenerate_pairs > 0
        assert reports[0].empirical_max == 0.0

    @pytest.mark.parametrize("make, lags", [
        (two_state, [1, 2, 3]), (skewed_mixture, [1, 4]),
        (iid_rademacher, [2]), (birth_death_5, [1, 3])])
    def test_matches_per_pair_corrcoef(self, make, lags):
        # oracle: np.corrcoef on each pair of non-degenerate functionals
        spec = make()
        reports = rho_mixing_check(spec, lags, 2000, 3).records
        panel = increment_panel(spec, max(lags) + 1, 2000, 3)
        fs = limit_checks._test_functionals(panel[:, 0])
        for r in reports:
            hs = limit_checks._test_functionals(panel[:, r.lag])
            live = [(f, h) for f in fs for h in hs
                    if min(f.std(ddof=1), h.std(ddof=1)) >= 1e-12]
            best = max((abs(np.corrcoef(f, h)[0, 1]) for f, h in live),
                       default=0.0)
            assert abs(r.empirical_max - best) < 1e-12
            assert r.degenerate_pairs == len(fs) * len(hs) - len(live)


class TestContinuousTime:
    def test_clt_at_large_t(self):
        result = ct_limit_check(ct_two_state(), [256.0], 50000, 23)
        assert result.records[0].kolmogorov < 0.03
        assert result.extras["fractional_part_negligible"]

    def test_uncentered_rejected(self):
        with pytest.raises(ValueError):
            ct_limit_check(ct_two_state(centered=False), [16.0], 100, 0)

    def test_fractional_horizon(self):
        result = ct_limit_check(ct_two_state(), [100.5], 20000, 29)
        assert result.extras["fractional_part_negligible"]
        assert result.records[0].kolmogorov < 0.05

    def test_fractional_bound_counts_jump_increments(self):
        # each jump moves Y by 3, beyond max|reward| = 1 over the whole
        # fractional part; the bound once ignored that and failed this spec
        ct = CtMapSpec(generator=np.array([[-1.0, 1.0], [2.0, -2.0]]),
                       reward=np.array([0.0, 1.0]),
                       jump_increments=np.array([[0.0, 3.0], [-3.0, 0.0]]),
                       centered=True)
        result = ct_limit_check(ct, [64.5, 256.5], 2000, 1)
        assert result.extras["fractional_part_negligible"]

    def test_fraction_below_one_is_checked(self, monkeypatch):
        # floor(0.5) = 0 and Y_0 = 0 is read, so Y_0.5 is the fractional
        # part; a Y_0.5 inflated far past the bound fails the check
        result = ct_limit_check(ct_two_state(), [0.5], 2000, 4)
        assert result.extras["fractional_part_negligible"]
        assert result.records[0].n == 0.5
        real = limit_checks.simulate_ct

        def inflated(*args, **kwargs):
            batches = real(*args, **kwargs)
            return [dataclasses.replace(b, terminal_Y=100.0 * b.terminal_Y)
                    for b in batches]

        monkeypatch.setattr(limit_checks, "simulate_ct", inflated)
        result = ct_limit_check(ct_two_state(), [0.5], 2000, 4)
        assert not result.extras["fractional_part_negligible"]

    def test_repeated_t_repeats_its_record(self):
        # one chain read at t = 64: the same record twice, that of t = 64
        # alone (a restart per entry drew a second chain for the repeat)
        twice = ct_limit_check(ct_two_state(), [64.0, 64.0], 2000, 4)
        once = ct_limit_check(ct_two_state(), [64.0], 2000, 4).records
        assert twice.extras["fractional_part_negligible"]
        assert twice.records == once * 2

    def test_clt_check_takes_ct_spec(self):
        # verify-clt on a CT spec: the records of ct_limit_check, n a float
        got = clt_check(ct_two_state(), [16, 64], 2000, 6).records
        want = ct_limit_check(ct_two_state(), [16.0, 64.0], 2000, 6).records
        assert got == want and [r.n for r in got] == [16.0, 64.0]
        assert all(type(r.n) is float for r in got)
