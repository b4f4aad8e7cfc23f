"""Statistical verification of the limit theorems against simulation.

Every check is a pure function of (spec, parameters, seed) that returns one
CheckResult with its gate inside: gates include DKW-style standard-error
slack, so verdicts are deterministic given seeds yet statistically sound.
"""

from __future__ import annotations

from dataclasses import dataclass, make_dataclass
from typing import NamedTuple

import numpy as np

from .chain_core import StochasticKernel, spectral_gap_report
from .errors import DegenerateVariance, LatticeSpec, NotCentered, TooFewPaths
from .fourier import NONLATTICE_GRID, nonlattice_certificate
from .map_model import (CtMapSpec, MapSpec, ct_sample_skeleton,
                        cumulant_rates, third_cumulant_rate, variance_series)
from .montecarlo import (increment_panel, initial_law, simulate_ct,
                         simulate_discrete)
from .normal import ndtr

DKW_DELTA = 1e-3
A_GRID = np.linspace(-5.0, 5.0, 2001)
PHI_GRID = ndtr(A_GRID)     # Phi on A_GRID, once per process
_DKW_NOTE = {"note": ("statistical falsification test with DKW slack, "
                      "not a proof-grade certificate")}


class CheckResult(NamedTuple):
    """What a check (or a CLI command) computed: the one result shape."""

    records: object = None  # per-record dataclasses (simulate: the samples)
    passed: bool = None     # the verdict; None for commands without one
    extras: dict = {}       # further report keys; "config" adds config keys
    table: list = None      # CSV rows, where they are not the records


def ecdf_se(n_samples: int, delta: float = DKW_DELTA) -> float:
    """DKW sup-norm deviation bound at confidence 1 - delta."""
    return float(np.sqrt(np.log(2.0 / delta) / (2.0 * n_samples)))


def be_flat(values, n_max, se: float) -> bool:
    """Berry-Esseen flatness: sqrt(n)-scaled distances within a factor 2,
    with the DKW noise floor se inflated by sqrt(n_max) granted as slack."""
    return bool(max(values) <= 2.0 * min(values) + 2.0 * np.sqrt(n_max) * se)


def _eta(a):
    return np.exp(-0.5 * a * a) / np.sqrt(2.0 * np.pi)


def _sup_distance(y, F, Fg) -> float:
    """Sup distance between the ECDF of the sorted sample y and a CDF whose
    values are F at y and Fg on A_GRID."""
    N = len(y)
    upper = np.max(np.arange(1, N + 1) / N - F)
    lower = np.max(F - np.arange(0, N) / N)
    idx = np.searchsorted(y, A_GRID, side="right")
    grid_dev = float(np.max(np.abs(idx / N - Fg)))
    return float(max(upper, lower, grid_dev))


def kolmogorov_distance(sample: np.ndarray, cdf=ndtr) -> float:
    """Exact sup distance between the ECDF and a reference CDF (Phi).

    Evaluated at the ECDF jumps (where the sup is attained) plus the fixed
    a-grid for robustness against heavy standardization errors.
    """
    y = np.sort(np.asarray(sample, dtype=float))
    return _sup_distance(y, cdf(y), PHI_GRID if cdf is ndtr else cdf(A_GRID))


@dataclass(frozen=True)
class GaussianComparison:
    """Empirical-vs-Gaussian discrepancy at one horizon."""

    n: float
    n_samples: int
    sigma_used: float
    kolmogorov: float
    be_constant: float                  # sqrt(n) * kolmogorov
    edgeworth_residual: float = None
    bias_term_used: bool = False
    se: float = None


def _sigma_for(spec) -> float:
    if isinstance(spec, CtMapSpec):
        # exact variance rate of a centered CT spec
        mean, sig2, _ = cumulant_rates(spec)
        if abs(mean) > 1e-8:
            raise NotCentered("continuous-time spec must be centered")
    else:
        sig2 = variance_series(spec)
    if sig2 <= 1e-12:
        raise DegenerateVariance("sigma^2 <= 1e-12; limit law is a Dirac mass")
    return float(np.sqrt(sig2))


def _terminal_Y(spec, n_list, paths: int, seed: int, mu=None):
    """[(n, Y_n)] along n_list, from one chain per path run to the largest n
    and read at each distinct n on the way. A continuous-time spec is read
    at real times, and n is a float there."""
    ct = isinstance(spec, CtMapSpec)
    cast = float if ct else int
    horizons = sorted({cast(n) for n in n_list})
    batches = (simulate_ct if ct else simulate_discrete)(
        spec, horizons[-1], paths, seed, mu=mu, at=horizons)
    Y = {b.horizon: b.terminal_Y[:, 0] for b in batches}
    return [(cast(n), Y[cast(n)]) for n in n_list]


def _clt_record(n, y, sigma: float, paths: int) -> GaussianComparison:
    kol = kolmogorov_distance(y / (sigma * np.sqrt(n)))
    return GaussianComparison(
        n=n, n_samples=paths, sigma_used=sigma, kolmogorov=kol,
        be_constant=float(np.sqrt(n) * kol), se=ecdf_se(paths))


def _clt_records(spec, n_list, paths: int, seed: int):
    sigma = _sigma_for(spec)
    return [_clt_record(n, y, sigma, paths)
            for n, y in _terminal_Y(spec, n_list, paths, seed)]


def _clt_gate(paths: int):
    """The CLT gate at paths, a test of the records: the Kolmogorov distance
    at the largest horizon is at most 0.03 plus twice the DKW slack. A
    distance never exceeds 1, so where that bound reaches 1 the gate cannot
    fail: TooFewPaths, before any draw."""
    threshold = 0.03 + 2.0 * ecdf_se(paths)
    if threshold >= 1.0:
        raise TooFewPaths(f"the CLT gate cannot fail at {paths} paths: its "
                          f"threshold {threshold:.4g} is >= 1")
    return lambda recs: max(recs, key=lambda r: r.n).kolmogorov <= threshold


def clt_check(spec, n_list, paths: int, seed: int):
    """Kolmogorov distance of Y_n/(sigma sqrt n) to N(0,1) along n_list, for
    a discrete or a continuous-time spec, under the CLT gate."""
    gate = _clt_gate(paths)
    records = _clt_records(spec, n_list, paths, seed)
    return CheckResult(records, gate(records), _DKW_NOTE)


def berry_esseen_check(spec: MapSpec, n_list, paths: int, seed: int):
    """Flatness of sqrt(n) * Kolmogorov along n_list; B_hat is an extra."""
    records = _clt_records(spec, n_list, paths, seed)
    B_hat = float(max(max(np.sqrt(r.n) * (r.kolmogorov - 2.0 * r.se), 0.0)
                      for r in records))
    flat = be_flat([r.be_constant for r in records],
                   max(r.n for r in records), records[0].se)
    return CheckResult(records, flat, {"B_hat": B_hat, **_DKW_NOTE})


def edgeworth_cdf(a, sigma: float, mu3: float, n: float, b_mu: float = 0.0,
                  phi=None):
    """First-order corrected CDF (with optional non-stationary bias term);
    phi is Phi(a), when it is at hand."""
    a = np.asarray(a, dtype=float)
    corr = mu3 / (6.0 * sigma ** 3 * np.sqrt(n)) * (1.0 - a * a) * _eta(a)
    bias = -b_mu * _eta(a) / (sigma * np.sqrt(n))
    return (ndtr(a) if phi is None else phi) + corr + bias


def asymptotic_bias(spec: MapSpec, mu) -> float:
    """Exact b_mu = lim E_{mu,0}[Y_n] via the fundamental-matrix solve.

    Requires a centered spec; equals mu Z a with Z = (I - P + Pi)^{-1} and
    a the conditional edge-mean vector.
    """
    P, pi = spec.P, spec.pi
    mu = initial_law(pi, mu)
    a = np.einsum("ij,ij->i", P, spec.edge_mean_matrix()[:, :, 0])
    if abs(pi @ a) > 1e-10:
        raise NotCentered("asymptotic bias requires a centered spec")
    return float(mu @ spec.kernel.fundamental @ a)


def _require_nonlattice(spec, allow_lattice):
    if allow_lattice:
        return
    ok, evidence = nonlattice_certificate(spec, np.linspace(*NONLATTICE_GRID))
    if not ok:
        raise LatticeSpec(f"the nonlattice condition fails: {evidence}")


def edgeworth_check(spec: MapSpec, n_list, paths: int, seed: int, mu=None,
                    allow_lattice: bool = False):
    """Edgeworth-corrected residuals along n_list, optional initial law mu.

    Each record carries both the plain Kolmogorov distance and the corrected
    residual; it passes where the correction does not hurt at any n.
    """
    _require_nonlattice(spec, allow_lattice)
    sigma = _sigma_for(spec)
    mu3 = third_cumulant_rate(spec)
    b_mu = 0.0 if mu is None else asymptotic_bias(spec, mu)
    records = []
    for n, y in _terminal_Y(spec, n_list, paths, seed, mu):
        z = np.sort(y / (sigma * np.sqrt(n)))
        F = ndtr(z)
        kol = _sup_distance(z, F, PHI_GRID)
        # the same sup distance against the (possibly non-monotone) corrected
        # curve, on the Phi values at hand: kol itself where mu3 = b_mu = 0
        resid = _sup_distance(
            z, edgeworth_cdf(z, sigma, mu3, n, b_mu, F),
            edgeworth_cdf(A_GRID, sigma, mu3, n, b_mu, PHI_GRID))
        records.append(GaussianComparison(
            n=n, n_samples=paths, sigma_used=sigma, kolmogorov=kol,
            be_constant=float(np.sqrt(n) * kol), edgeworth_residual=resid,
            bias_term_used=mu is not None, se=ecdf_se(paths)))
    return CheckResult(records, all(r.edgeworth_residual <= r.kolmogorov
                                    + 1e-15 for r in records), _DKW_NOTE)


@dataclass(frozen=True)
class LltRecord:
    """Scaled density estimate against the integral of a bump function."""

    n: int
    center: float
    width: float
    estimate: float     # sqrt(det Sigma) (2 pi n)^(1/2) E[g(Y_n)]
    target: float       # integral of g
    ratio: float
    mc_se: float        # standard error of the ratio


def triangular_bump(center: float, width: float):
    """Triangular bump of height 1, support [center - width, center + width]."""

    def g(y):
        return np.clip(1.0 - np.abs(y - center) / width, 0.0, None)

    g.integral = width
    g.center = center
    g.width = width
    return g


def llt_check(spec: MapSpec, n_list, paths: int, seed: int, bumps=None,
              allow_lattice: bool = False):
    """Local-limit ratios for a family of bump test functions, each within
    4 standard errors of 1."""
    if paths < 2:       # the standard error divides by paths - 1
        raise TooFewPaths(f"llt_check needs paths >= 2, got {paths}")
    _require_nonlattice(spec, allow_lattice)
    sigma = _sigma_for(spec)
    if bumps is None:
        bumps = [triangular_bump(0.0, 1.0)]
    records = []
    for n, y in _terminal_Y(spec, n_list, paths, seed):
        scale = sigma * np.sqrt(2.0 * np.pi * n)
        for g in bumps:
            vals = scale * g(y)
            est = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(paths))
            records.append(LltRecord(
                n=int(n), center=g.center, width=g.width, estimate=est,
                target=g.integral, ratio=est / g.integral,
                mc_se=se / g.integral))
    return CheckResult(records, all(abs(r.ratio - 1.0) <= 4.0 * r.mc_se
                                    for r in records))


@dataclass(frozen=True)
class RhoMixReport:
    """Empirical max correlation at one lag against the certified bound."""

    lag: int
    empirical_max: float
    bound: float
    se: float
    degenerate_pairs: int
    vacuous: bool = False


def _test_functionals(panel_col):
    """Fixed family: linear, quadratic, quartile-bin indicators."""
    funcs = [panel_col, panel_col ** 2]
    qs = np.quantile(panel_col, [0.25, 0.5, 0.75])
    edges = np.concatenate([[-np.inf], np.unique(qs), [np.inf]])
    for lo, hi in zip(edges[:-1], edges[1:]):
        funcs.append(((panel_col > lo) & (panel_col <= hi)).astype(float))
    return funcs


def _standardised(panel_col):
    """(Z, n): the n test functionals of panel_col, less those with std below
    1e-12, centred and scaled to unit norm as the rows of Z."""
    F = np.array(_test_functionals(panel_col))
    Z = F[F.std(axis=1, ddof=1) >= 1e-12]
    Z = Z - Z.mean(axis=1, keepdims=True)
    return Z / np.linalg.norm(Z, axis=1, keepdims=True), len(F)


LagBound = make_dataclass("LagBound", ["lag", "bound"])  # kernel CSV rows


def rho_mixing_check(spec, lags, paths: int, seed: int):
    """Empirical lag correlations of increments against ||P^{t-1} - Pi||_2;
    it passes where each is within 4 standard errors of a non-vacuous bound.

    A continuous-time spec is read at integer times: its panel is the diff
    of Y read at 0, 1, ..., max_lag + 1 on one chain, and P the time-1
    skeleton kernel. A bare kernel gets the bounds alone and passes where
    it has a spectral gap.
    """
    if isinstance(spec, StochasticKernel):
        # the rate fit needs t_max >= 2; it covers 1..max(lags) otherwise
        table = spectral_gap_report(spec, max(list(lags) + [2]))
        return CheckResult(passed=table.gap_present, extras={
            "bounds": {str(t): table.bound(t) for t in lags},
            "fitted_C": table.C, "fitted_eps": table.eps,
            "gap_present": table.gap_present,
        }, table=[LagBound(t, table.bound(t)) for t in lags])
    if paths < 2:       # the correlations divide by paths - 1
        raise TooFewPaths(f"rho_mixing_check needs paths >= 2, got {paths}")
    max_lag = int(max(lags))
    if isinstance(spec, CtMapSpec):
        kernel = ct_sample_skeleton(spec)
        reads = _terminal_Y(spec, range(1, max_lag + 2), paths, seed)
        panel = np.diff(np.column_stack(
            [np.zeros(paths)] + [y for _, y in reads]), axis=1)
    else:
        kernel = spec.kernel
        panel = increment_panel(spec, max_lag + 1, paths, seed)
    report = spectral_gap_report(kernel, max_lag + 1)
    se = 1.0 / np.sqrt(paths)
    out = []
    zf, nf = _standardised(panel[:, 0])
    for t in lags:
        t = int(t)
        zh, nh = _standardised(panel[:, t])
        # one product: the correlation of every pair of non-degenerate ones
        corr = np.clip(zf @ zh.T, -1.0, 1.0)
        best = float(np.abs(corr).max(initial=0.0))
        degenerate = nf * nh - corr.size
        bound = report.bound(t)     # ||P^{t-1} - Pi||_2 >= rho(t)
        out.append(RhoMixReport(lag=t, empirical_max=best, bound=float(bound),
                                se=se, degenerate_pairs=degenerate,
                                vacuous=bound >= 1.0 - 1e-12))
    return CheckResult(out, all(r.vacuous or r.empirical_max <= r.bound
                                + 4.0 * r.se for r in out),
                       {"config": {"paths": paths, "seed": seed}})


def ct_limit_check(ct: CtMapSpec, t_list, paths: int, seed: int):
    """CLT/Berry-Esseen records for Y_t/sqrt(t) at real horizons.

    sigma^2 is the exact variance rate. One chain per path runs to max(t)
    and is read at every t and every floor(t) (Y_0 = 0). The fractional-part
    correction (Y_t - Y_floor(t))/sqrt(t), verified negligible via its
    sample second moment against the sup_{v<=1} E[Y_v^2] bound, gates too.
    """
    gate = _clt_gate(paths)
    sigma = _sigma_for(ct)
    # |Y_v| <= max|xi| + max|J| N_1 for v <= 1, N_1 ~< Poisson(q_max)
    xi2, q = np.max(np.abs(ct.reward)) ** 2, np.max(-np.diag(ct.generator))
    J = 0.0 if ct.jump_increments is None else np.max(np.abs(ct.jump_increments))
    sup_Yv2 = float(xi2 if J == 0 else 2 * xi2 + 2 * J ** 2 * (q + q * q))
    t_list = [float(t) for t in t_list]
    Y = dict(_terminal_Y(ct, t_list + [np.floor(t) for t in t_list], paths,
                         seed))
    records = [_clt_record(t, Y[t], sigma, paths) for t in t_list]
    fractional_ok = not any(
        np.mean(((Y[t] - Y[np.floor(t)]) / np.sqrt(t)) ** 2)
        > sup_Yv2 / t + 1e-12 for t in t_list)
    return CheckResult(records, fractional_ok and gate(records),
                       {"fractional_part_negligible": fractional_ok})
