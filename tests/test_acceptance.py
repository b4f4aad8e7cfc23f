"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints exactly one
verdict line of the form

    [criterion NN] PASS <name> (detail)

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the two long-running criteria (12 and 14) carry the ``slow`` marker and can
be deselected with ``-m "not slow"``.

All tolerances are pinned; every randomized check uses a fixed seed so the
suite is deterministic.
"""

import numpy as np
import pytest
from scipy.special import ndtr

from maplab import fixtures
from maplab.chain_core import StochasticKernel, l2_operator_norm, spectral_gap_report
from maplab.fourier import derivatives_at_zero, lambda_branch, nonlattice_scan
from maplab.increments import deterministic, gaussian
from maplab.limit_checks import (A_GRID, asymptotic_bias, berry_esseen_check,
                                 clt_check, ct_limit_check, ecdf_se,
                                 edgeworth_cdf, kolmogorov_distance, llt_check,
                                 rho_mixing_check, triangular_bump)
from maplab.map_model import (CtMapSpec, MapSpec, exact_mean, exact_moments,
                              third_cumulant_rate, variance_series)
from maplab.mestim import _f_map_spec, estimator_be_check
from maplab.montecarlo import simulate_discrete

from conftest import (semigroup_residual, skewed_mixture_exact_cdf,
                      spectral_expansion, step_moments)

PATHS = 100_000

DISCRETE_FIXTURES = ("two_state", "iid_rademacher", "skewed_mixture",
                     "gaussian_iid", "birth_death_5")


def _verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {num:02d}] {tag} {name}{suffix}")
    assert ok, f"criterion {num:02d} {name} failed{suffix}"


def _random_discrete_spec(rng, n_states):
    P = rng.uniform(0.05, 1.0, size=(n_states, n_states))
    P /= P.sum(axis=1, keepdims=True)
    incs = {}
    for i in range(n_states):
        for j in range(n_states):
            if rng.random() < 0.5:
                incs[(i, j)] = deterministic([rng.normal()])
            else:
                incs[(i, j)] = gaussian([rng.normal()],
                                        [[rng.uniform(0.1, 1.0)]])
    kernel = StochasticKernel(states=tuple(range(n_states)), P=P)
    return MapSpec(kernel=kernel, increments=incs, d=1, centered=False)


def _random_ct_spec(rng, n_states):
    G = rng.uniform(0.2, 2.0, size=(n_states, n_states))
    np.fill_diagonal(G, 0.0)
    np.fill_diagonal(G, -G.sum(axis=1))
    return CtMapSpec(generator=G, reward=rng.normal(size=n_states),
                     centered=False)


def test_criterion_01_mixing_bound_algebra():
    spec = fixtures.two_state()
    Pi = spec.kernel.projector
    errs = [abs(l2_operator_norm(
        np.linalg.matrix_power(spec.P, t) - Pi, spec.pi) - 0.5 ** t)
        for t in range(1, 11)]
    table = spectral_gap_report(spec.kernel, 11)
    table_errs = [abs(table.bound(t + 1) - 0.5 ** t) for t in range(1, 11)]
    eps_err = abs(table.eps - np.log(2.0))
    iid = fixtures.iid_rademacher()
    iid_table = spectral_gap_report(iid.kernel, 11)
    iid_tail = max(iid_table.bound(t) for t in range(2, 12))
    ok = (max(errs) <= 1e-10 and max(table_errs) <= 1e-10
          and eps_err <= 1e-6 and iid_tail <= 1e-12)
    _verdict(1, "mixing-bound algebra", ok,
             f"max|bound-0.5^t|={max(max(errs), max(table_errs)):.2e}, "
             f"|eps-ln2|={eps_err:.2e}, iid tail={iid_tail:.2e}")


def test_criterion_02_semigroup_property():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(600):
        spec = _random_discrete_spec(rng, int(rng.integers(2, 5)))
        zeta = float(rng.uniform(-3.0, 3.0))
        s, t = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        worst = max(worst, semigroup_residual(spec, zeta, s, t))
    for _ in range(399):
        ct = _random_ct_spec(rng, int(rng.integers(2, 4)))
        zeta = float(rng.uniform(-3.0, 3.0))
        s, t = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0))
        worst = max(worst, semigroup_residual(ct, zeta, s, t))
    worst = max(worst, semigroup_residual(fixtures.ct_two_state(), 0.8, 1.3,
                                          2.7))
    ok = worst <= 1e-9
    _verdict(2, "semigroup property, 1000 randomized cases", ok,
             f"worst residual={worst:.2e}")


def test_criterion_03_spectral_expansion_identity():
    zetas = np.linspace(-2.0, 2.0, 20)
    worst_identity = 0.0
    for name in DISCRETE_FIXTURES + ("ct_two_state",):
        spec = fixtures.get_fixture(name)
        for zeta in zetas:
            for n in (1, 5, 20, 50):
                lhs, main, rem, _ = spectral_expansion(spec, float(zeta), n)
                worst_identity = max(worst_identity, abs(lhs - (main + rem)))
    worst_zero_rem = max(
        abs(spectral_expansion(fixtures.get_fixture(name), 0.0, n)[2])
        for name in DISCRETE_FIXTURES for n in (1, 10, 50))
    # remainder decays geometrically at the measured subdominant radius
    spec = fixtures.two_state()
    ns = np.arange(2, 15)
    rems = np.array([abs(spectral_expansion(spec, 0.7, int(n))[2])
                     for n in ns])
    kappa = spectral_expansion(spec, 0.7, 2)[3]
    slope = float(np.polyfit(ns, np.log(rems), 1)[0])
    slope_err = abs(slope - np.log(kappa))
    ok = (worst_identity <= 1e-9 and worst_zero_rem <= 1e-12
          and slope_err <= 0.05)
    _verdict(3, "spectral expansion identity and remainder decay", ok,
             f"identity={worst_identity:.2e}, R_n(0)={worst_zero_rem:.2e}, "
             f"|slope-ln kappa|={slope_err:.3f}")


def test_criterion_04_eigenvalue_derivative_identities():
    # the third derivative is checked against the exact-moment slope
    # (E[Y_2n^3] - E[Y_n^3]) / n from the step-by-step moment oracle; at
    # n = 512 the geometric error of the slope is far below the tolerance
    n = 512
    worst_g = worst_h = worst_3 = 0.0
    for name in DISCRETE_FIXTURES:
        spec = fixtures.get_fixture(name)
        grad, hess, third = derivatives_at_zero(spec)
        slope = (step_moments(spec, 2 * n, 3) - step_moments(spec, n, 3)) / n
        worst_g = max(worst_g, abs(grad[0] - 1j * exact_mean(spec)[0]))
        worst_h = max(worst_h,
                      abs(np.real(-hess[0, 0]) - variance_series(spec)))
        worst_3 = max(worst_3, abs(np.real(1j * third) - slope),
                      abs(third_cumulant_rate(spec) - slope))
    grad_ct, _, _ = derivatives_at_zero(fixtures.ct_two_state(centered=False))
    worst_g = max(worst_g, abs(grad_ct[0] - 1j / 3.0))
    ok = worst_g <= 1e-9 and worst_h <= 1e-9 and worst_3 <= 1e-9
    _verdict(4, "eigenvalue derivatives vs exact moments", ok,
             f"grad={worst_g:.2e}, hess={worst_h:.2e}, third={worst_3:.2e}")


def test_criterion_05_taylor_remainder_order():
    slopes = []
    for name in ("two_state", "skewed_mixture"):
        spec = fixtures.get_fixture(name)
        sig2 = variance_series(spec)
        zs = np.logspace(-3, -1, 15)
        lam = lambda_branch(spec, np.concatenate([[0.0], zs])).lam[1:]
        resid = np.abs(lam - 1.0 + sig2 * zs ** 2 / 2.0)
        slopes.append(float(np.polyfit(np.log(zs), np.log(resid), 1)[0]))
    ok = min(slopes) >= 2.9
    _verdict(5, "third-order Taylor remainder", ok,
             f"slopes={[round(s, 3) for s in slopes]}")


def test_criterion_06_rho_mixing_bounds():
    worst_name, worst_margin = None, -np.inf
    for name in DISCRETE_FIXTURES + ("lattice_pm1", "ct_two_state"):
        spec = fixtures.get_fixture(name)
        out = rho_mixing_check(spec, range(1, 11), PATHS, 6).records
        margin = max(r.empirical_max - (r.bound + 4.0 * r.se) for r in out)
        if margin > worst_margin:
            worst_name, worst_margin = name, margin
    ok = worst_margin <= 0.0
    _verdict(6, "increment correlations within mixing bounds", ok,
             f"worst margin={worst_margin:+.4f} on {worst_name}")


def test_criterion_07_clt():
    kol_d = clt_check(fixtures.two_state(), [4096], PATHS,
                      1).records[0].kolmogorov
    ct = ct_limit_check(fixtures.ct_two_state(), [4096.0], PATHS, 1)
    kol_ct = ct.records[0].kolmogorov
    frac_ok = ct.extras["fractional_part_negligible"]
    ok = kol_d <= 0.03 and kol_ct <= 0.03 and frac_ok
    _verdict(7, "central limit theorem at horizon 4096", ok,
             f"discrete={kol_d:.4f}, continuous={kol_ct:.4f} (gate 0.03)")


def test_criterion_08_berry_esseen_flatness():
    n_list = [256, 1024, 4096]
    flat_two = berry_esseen_check(fixtures.two_state(), n_list, PATHS,
                                  2).passed
    iid = berry_esseen_check(fixtures.iid_rademacher(), n_list, PATHS, 2)
    B_iid, flat_iid = iid.extras["B_hat"], iid.passed
    ok = flat_two and flat_iid and 0.2 <= B_iid <= 0.7
    _verdict(8, "sqrt(n)-scaled Kolmogorov distance flat", ok,
             f"flat={flat_two and flat_iid}, B_hat(iid)={B_iid:.3f} in [0.2, 0.7]")


def test_criterion_09_edgeworth_correction():
    spec = fixtures.skewed_mixture()
    sigma = float(np.sqrt(variance_series(spec)))
    mu3 = third_cumulant_rate(spec)
    n_list = (256, 1024, 4096)
    uncorr, corr = {}, {}
    for n in n_list:
        # the K = 0 point mass at n lies outside the grid for these n
        F = skewed_mixture_exact_cdf(A_GRID * sigma * np.sqrt(n), n)
        uncorr[n] = float(np.max(np.abs(F - ndtr(A_GRID))))
        corr[n] = float(np.max(np.abs(
            F - edgeworth_cdf(A_GRID, sigma, mu3, n))))
    helps = all(corr[n] < uncorr[n] for n in n_list)
    ratio = (np.sqrt(4096) * corr[4096]) / (np.sqrt(256) * corr[256])
    # symmetric fixture: the correction term is identically zero
    sym_sigma = float(np.sqrt(variance_series(fixtures.iid_rademacher())))
    bit_zero = np.array_equal(
        edgeworth_cdf(A_GRID, sym_sigma, 0.0, 256), ndtr(A_GRID))
    ok = helps and ratio < 0.5 and bit_zero
    _verdict(9, "first-order Edgeworth correction", ok,
             f"corrected<uncorrected at all n={helps}, "
             f"sqrt(n)-ratio(4096/256)={ratio:.3f}, symmetric bit-zero={bit_zero}")


def test_criterion_10_local_limit_theorem():
    rec = llt_check(fixtures.gaussian_iid(), [4096], PATHS, 3).records[0]
    gauss_ok = abs(rec.ratio - 1.0) <= 3.0 * rec.mc_se
    bumps = [triangular_bump(0.0, 1.0), triangular_bump(1.0, 1.0)]
    lat = llt_check(fixtures.lattice_pm1(), [4096], PATHS, 3, bumps=bumps,
                    allow_lattice=True).records
    outside = [r.ratio for r in lat if not 0.5 <= r.ratio <= 1.5]
    ok = gauss_ok and len(outside) >= 1
    _verdict(10, "local limit ratio and lattice negative control", ok,
             f"gaussian ratio={rec.ratio:.3f}+-{rec.mc_se:.3f}, "
             f"lattice ratios={[round(r.ratio, 3) for r in lat]}")


def test_criterion_11_nonlattice_scan():
    rho_lat, worst = nonlattice_scan(fixtures.lattice_pm1(),
                                     np.array([np.pi, 2.0 * np.pi]))
    at_2pi = abs(rho_lat - 1.0)
    rho_g, _ = nonlattice_scan(fixtures.gaussian_iid(),
                               np.linspace(0.1, 10.0, 200))
    ok = at_2pi <= 1e-9 and rho_g < 1.0 - 1e-3
    _verdict(11, "lattice frequency detection via spectral radius", ok,
             f"|rho(2pi)-1|={at_2pi:.2e}, gaussian rho_hat={rho_g:.4f}")


@pytest.mark.slow
def test_criterion_12_nonstationary_bias_correction():
    spec = fixtures.two_state()
    # geometric-series oracle: the conditional-mean vector is a 0.5-eigenvector
    # of P - Pi, so sum_k (P^k a)_0 = a_0 sum_k 0.5^k = 2 a_0 = -0.6
    b0 = asymptotic_bias(spec, [1.0, 0.0])
    b1 = asymptotic_bias(spec, [0.0, 1.0])
    oracle_ok = abs(b0 + 0.6) <= 1e-12 and abs(b1 - 0.4) <= 1e-12
    sigma = float(np.sqrt(variance_series(spec)))
    mu3 = third_cumulant_rate(spec)
    n, paths = 1024, 1_000_000
    batch = simulate_discrete(spec, n, paths, 12, mu=[1.0, 0.0])
    z = batch.terminal_Y[:, 0] / (sigma * np.sqrt(n))
    with_bias = kolmogorov_distance(
        z, lambda a: edgeworth_cdf(a, sigma, mu3, n, b0))
    without = kolmogorov_distance(
        z, lambda a: edgeworth_cdf(a, sigma, mu3, n, 0.0))
    ok = oracle_ok and with_bias < without
    _verdict(12, "non-stationary start bias term", ok,
             f"b=({b0:+.3f},{b1:+.3f}), residual with bias={with_bias:.5f} "
             f"< without={without:.5f} at n={n}")


def test_criterion_13_variance_rate_bound():
    problem = fixtures.mean_contrast_problem()
    worst_ratio = 0.0
    for theta in problem.thetas:
        spec1 = _f_map_spec(problem.kernels[theta], problem.family.F1,
                            problem.alpha0[theta])
        v1 = variance_series(spec1)
        vals = {n: n * abs(v1 - exact_moments(spec1, n, 2) / n)
                for n in (2 ** p for p in range(1, 13))}
        worst_ratio = max(worst_ratio, max(vals.values()) / vals[1024])
    ok = worst_ratio <= 1.5
    _verdict(13, "n-scaled variance defect bounded (exact recursion)", ok,
             f"max over theta of max_n/value(2^10)={worst_ratio:.4f} <= 1.5")


@pytest.mark.slow
def test_criterion_14_estimator_berry_esseen():
    problem = fixtures.mean_contrast_problem()
    result = estimator_be_check(problem, [256, 1024, 4096], PATHS, 14)
    records, verdict = result.records, result.passed
    gammas = sorted({(r.n, r.theta): r.gamma_hat for r in records}.items())
    worst_gamma = {n: max(g for (m, _), g in gammas if m == n)
                   for n in (256, 1024, 4096)}
    _verdict(14, "estimator Berry-Esseen flatness over theta grid", verdict,
             f"5 thetas x n in (256,1024,4096), reps={PATHS}, "
             f"gamma_hat max by n={worst_gamma}")


def test_criterion_15_deterministic_reports(tmp_path):
    from maplab.cli import dispatch
    commands = [
        ["verify-clt", "--fixture", "two_state", "--n-list", "64,256",
         "--paths", "20000", "--seed", "7"],
        ["verify-be", "--fixture", "iid_rademacher", "--n-list", "64,256",
         "--paths", "20000", "--seed", "3"],
        ["mixing-bound", "--fixture", "two_state", "--lags", "1,2,3",
         "--paths", "20000", "--seed", "2"],
        ["analyze", "--fixture", "skewed_mixture"],
        ["mestimate", "--fixture", "mean_contrast_problem", "--n-list", "64",
         "--reps", "2000", "--seed", "17"],
    ]
    all_ok = True
    for idx, argv in enumerate(commands):
        p1 = tmp_path / f"a{idx}.json"
        p2 = tmp_path / f"b{idx}.json"
        assert dispatch(argv + ["--out", str(p1)]) in (0, 1)
        assert dispatch(argv + ["--out", str(p2)]) in (0, 1)
        all_ok = all_ok and p1.read_bytes() == p2.read_bytes()
    _verdict(15, "byte-identical reports across reruns", all_ok,
             f"{len(commands)} commands, each run twice")
