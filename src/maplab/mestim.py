"""M-estimation for parametric finite-state chains and its Berry-Esseen check.

The contrast is an additive functional of consecutive state pairs, so the
whole estimating equation reduces to per-edge transition counts; Newton steps
are vectorized across replications through those counts. The counts come
from montecarlo.simulate_edge_counts, one chain per path and theta read at
every n, on the stream of the theta's kernel and the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_core import l2_operator_norm
from .errors import ConditionViolated, TooFewPaths
from .increments import DETERMINISTIC
from .limit_checks import CheckResult, be_flat, ecdf_se, kolmogorov_distance
from .map_model import MapSpec, exact_moments, variance_series
from .montecarlo import simulate_edge_counts

FOC_TOL = 1e-10


@dataclass(frozen=True)
class ContrastFamily:
    """Twice-differentiable contrast F(alpha, x, y) with supplied derivatives.

    F, F1, F2 take (alpha, i, j) with alpha numpy-broadcastable and i, j
    state indices, or arrays of them that broadcast against alpha; W(i) is
    the Lipschitz witness for the second derivative, at a state or at an
    array of states.
    """

    name: str
    alpha_domain: tuple
    F: object
    F1: object
    F2: object
    W: object

    def check_derivative_consistency(self, kernels, rng):
        """Finite-difference agreement of F1 with F at 64 random points."""
        lo, hi = self.alpha_domain
        pad = 0.05 * (hi - lo)
        S = next(iter(kernels.values())).n_states
        a, i, j = _draw_points(rng, 64, 1, lo + pad, hi - pad, S)
        h = 1e-6 * np.maximum(1.0, np.abs(a))
        fd = (self.F(a + h, i, j) - self.F(a - h, i, j)) / (2 * h)
        bad = np.abs(fd - self.F1(a, i, j)) > 1e-6 * np.maximum(1.0, np.abs(fd))
        if bad.any():
            raise ConditionViolated("F-derivative", detail=(
                "F1 disagrees with finite difference at "
                f"alpha={a[np.argmax(bad)]:.4f}"))

    def check_lipschitz_witness(self, n_states, rng):
        """Sampled verification of the second-derivative Lipschitz bound."""
        lo, hi = self.alpha_domain
        pad = 0.05 * (hi - lo)
        a, b, i, j = _draw_points(rng, 256, 2, lo + pad, hi - pad, n_states)
        lhs = np.abs(self.F2(a, i, j) - self.F2(b, i, j))
        rhs = np.abs(a - b) * (self.W(i) + self.W(j)) + 1e-12
        bad = lhs > rhs
        if bad.any():
            k = np.argmax(bad)
            raise ConditionViolated("V5", detail=(
                f"Lipschitz witness violated at ({a[k]:.4f}, {b[k]:.4f})"))


def _draw_points(rng, count, n_alpha, lo, hi, n_states):
    """Columns (alpha_1, ..., alpha_n_alpha, i, j) of count points drawn one
    by one, each as n_alpha uniforms on [lo, hi] and then two states, so
    that the certificates test whole arrays (and report the first failing
    point in draw order) on the stream of a point-by-point loop."""
    pts = np.array([(*rng.uniform(lo, hi, size=n_alpha),
                     *rng.integers(0, n_states, size=2))
                    for _ in range(count)])
    return (*pts[:, :n_alpha].T, *pts[:, n_alpha:].T.astype(int))


def mean_contrast_family(xi_table: np.ndarray) -> ContrastFamily:
    """Quadratic mean contrast F = (xi(x,y) - alpha)^2 for an edge table xi."""
    xi = np.asarray(xi_table, dtype=float)

    return ContrastFamily(
        name="mean_contrast",
        alpha_domain=(-2.0, 3.0),
        F=lambda a, i, j: (xi[i, j] - a) ** 2,
        F1=lambda a, i, j: -2.0 * (xi[i, j] - a),
        F2=lambda a, i, j: 2.0 * np.ones_like(np.asarray(a, dtype=float)),
        W=lambda i: 1.0,
    )


@dataclass(frozen=True)
class MEstimationProblem:
    """Certified parametric M-estimation setup over a finite theta grid."""

    family: ContrastFamily
    kernels: dict                       # theta -> StochasticKernel
    alpha0: dict
    m: dict
    sigma1: dict
    tau: dict
    d_ball: float
    eq16_max: dict                      # theta -> max_n n |sigma^2 - E[Y_n^2]/n|

    @property
    def thetas(self):
        return sorted(self.kernels)


def _edge_value_table(func, alpha, S):
    """(len(alpha), S*S) table of func at every alpha and flat edge i*S + j,
    from one broadcast call (func may return shape (len(alpha), 1))."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    i, j = divmod(np.arange(S * S), S)
    return np.broadcast_to(func(alpha[:, None], i, j), (len(alpha), S * S))


def _edge_expectation(kernel):
    """(func, alpha) -> E_pi[func(alpha, X_0, X_1)], for a scalar or a
    vector alpha, with the kernel's edges P_ij > 0 and their weights
    pi_i P_ij found once.

    The terms pi_i P_ij func(alpha, i, j) are summed in row-major edge
    order (cumsum is sequential), as an edge loop would.
    """
    edges = np.flatnonzero(kernel.P.ravel() > 0)
    w = (kernel.pi[:, None] * kernel.P).ravel()[edges]
    i, j = divmod(edges, kernel.n_states)

    def expectation(func, alpha):
        a = np.atleast_1d(np.asarray(alpha, dtype=float))
        terms = w * np.broadcast_to(func(a[:, None], i, j),
                                    (len(a), len(edges)))
        total = np.cumsum(terms, axis=1)[:, -1]
        return total if np.ndim(alpha) else total[0]
    return expectation


def _f_map_spec(kernel, func, alpha) -> MapSpec:
    """The spec whose edge (i, j) has the point mass func(alpha, i, j), its
    atom table built from the edge values in one go."""
    S = kernel.n_states
    edges = np.flatnonzero(kernel.P.ravel() > 0)
    n = len(edges)
    vals = _edge_value_table(func, alpha, S)[0, edges].astype(float)
    return MapSpec(kernel=kernel, d=1, centered=False, table={
        "rows": edges // S, "cols": edges % S,
        "kind": np.full(n, DETERMINISTIC), "start": np.arange(n),
        "prob": np.ones(n), "mean": vals[:, None], "cov": np.zeros((n, 1, 1))})


def _bisect(f, lo, hi, xtol=1e-14):
    """A root of f in the sign-change bracket [lo, hi], to within xtol or
    to adjacent floats, whichever is wider."""
    side = np.sign(f(lo))
    while hi - lo > xtol and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if np.sign(f(mid)) == side:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def build_problem(family: ContrastFamily, kernels: dict) -> MEstimationProblem:
    """Solve for alpha0 and the asymptotic scales; certify all conditions.

    Raises ConditionViolated naming the first failed condition and theta.
    """
    rng = np.random.default_rng(0)
    lo, hi = family.alpha_domain
    pad = 1e-6 * (hi - lo)
    grid = np.linspace(lo + pad, hi - pad, 512)

    family.check_derivative_consistency(kernels, rng)
    family.check_lipschitz_witness(next(iter(kernels.values())).n_states, rng)

    # uniform spectral gap over the grid
    for theta, kernel in kernels.items():
        kappa = l2_operator_norm(kernel.P - kernel.projector, kernel.pi)
        if kappa >= 1.0 - 1e-10:
            raise ConditionViolated("M", theta=theta,
                                    detail=f"||P - Pi||_2 = {kappa:.6f}")

    alpha0, m, s1, tau, eq16 = {}, {}, {}, {}, {}
    for theta, kernel in kernels.items():
        expect = _edge_expectation(kernel)
        vals = expect(family.F1, grid)      # F1 broadcasts
        signs = np.sign(vals)
        crossings = np.flatnonzero(np.diff(signs) != 0)
        crossings = crossings[np.abs(vals[crossings]) > 0]
        if len(crossings) == 0:
            raise ConditionViolated("V1", theta=theta, detail="no root of E[F1]")
        if len(crossings) > 1:
            raise ConditionViolated("V1", theta=theta,
                                    detail=f"{len(crossings)} roots of E[F1]")
        a0 = _bisect(lambda a: expect(family.F1, a),
                     grid[crossings[0]], grid[crossings[0] + 1])
        for _ in range(3):  # Newton polish
            f1 = expect(family.F1, a0)
            f2 = expect(family.F2, a0)
            a0 -= f1 / f2
        if abs(expect(family.F1, a0)) > 1e-12:
            raise ConditionViolated("V1", theta=theta, detail="root polish failed")
        alpha0[theta] = float(a0)

        m_theta = expect(family.F2, a0)
        if m_theta <= 0:
            raise ConditionViolated("V2", theta=theta, detail=f"m = {m_theta:.4g}")
        m[theta] = float(m_theta)

        spec1 = _f_map_spec(kernel, family.F1, a0)
        v1 = variance_series(spec1)
        s1[theta] = float(np.sqrt(max(v1, 0.0)))
        tau[theta] = s1[theta] / m_theta

        # certify the 1/n convergence-rate bound on the variance
        worst = 0.0
        for p in range(1, 13):
            n = 2 ** p
            worst = max(worst, n * abs(v1 - exact_moments(spec1, n, 2) / n))
        eq16[theta] = float(worst)

    if min(s1.values()) <= 0:
        raise ConditionViolated("V4", detail="inf sigma_1 = 0")

    mean_W = {theta: float(sum(kernel.pi[i] * family.W(i)
                               for i in range(kernel.n_states)))
              for theta, kernel in kernels.items()}
    d_ball = min(m.values()) / (4.0 * (max(mean_W.values()) + 1.0))

    return MEstimationProblem(family=family, kernels=dict(kernels),
                              alpha0=alpha0, m=m, sigma1=s1, tau=tau,
                              d_ball=float(d_ball), eq16_max=eq16)


def _newton_on_counts(family, counts, alpha_init, domain, max_iter=60):
    """Vectorized Newton for M_n^(1)(alpha) = 0 across replications.

    Returns (alpha_hat, residual, converged). Steps falling outside the
    domain are clamped; convergence requires |M_n^(1)| <= FOC_TOL.
    """
    reps, S, _ = counts.shape
    n = counts[0].sum()
    flat = counts.reshape(reps, S * S).astype(float)
    alpha = np.full(reps, float(alpha_init))
    lo, hi = domain
    for _ in range(max_iter):
        f1 = _edge_value_table(family.F1, alpha, S)
        val = np.einsum("re,re->r", flat, f1) / n
        f2 = _edge_value_table(family.F2, alpha, S)
        der = np.einsum("re,re->r", flat, f2) / n
        bad = np.abs(der) < 1e-14
        step = np.where(bad, 0.0, val / np.where(bad, 1.0, der))
        alpha = np.clip(alpha - step, lo + 1e-12, hi - 1e-12)
        if np.max(np.abs(val)) <= FOC_TOL:
            break
    f1 = _edge_value_table(family.F1, alpha, S)
    resid = np.abs(np.einsum("re,re->r", flat, f1) / n)
    return alpha, resid, resid <= FOC_TOL


@dataclass(frozen=True)
class EstimatorBeRecord:
    theta: float
    n: int
    reps: int
    kolmogorov: float
    sqrt_n_kolmogorov: float
    gamma_hat: float                    # consistency-failure rate
    excluded: int                       # runs failing the FOC residual bound


def estimator_be_check(problem: MEstimationProblem, n_list, reps: int,
                       seed: int):
    """Uniform Berry-Esseen harness: ECDF of standardized estimates vs Phi.

    It passes where sqrt(n)*distance is flat in n (max over theta) and the
    consistency-failure rate gamma_hat is nonincreasing; its extras add the
    problem's scales, the empirical constant and gamma_hat at the largest n.
    """
    family = problem.family
    horizons = sorted({int(n) for n in n_list})
    records = []
    for theta in problem.thetas:
        kernel = problem.kernels[theta]
        a0, tau = problem.alpha0[theta], problem.tau[theta]
        # one chain per path read at every horizon; the stream is keyed by
        # the kernel, so each theta has its own
        record_at = {}
        for n, counts in zip(horizons, simulate_edge_counts(
                kernel, horizons[-1], reps, seed, at=horizons)):
            alpha, resid, ok = _newton_on_counts(family, counts, a0,
                                                 family.alpha_domain)
            gamma_hat = float(np.mean(np.abs(alpha - a0) >= problem.d_ball))
            keep = ok & (np.abs(alpha - a0) < problem.d_ball)
            if not keep.any():
                raise TooFewPaths(
                    f"no replication at n = {n} (theta = {theta}) has a "
                    f"converged estimate within d_ball = {problem.d_ball:.4g} "
                    "of alpha0, so there is no sample to compare with Phi")
            z = np.sqrt(n) * (alpha[keep] - a0) / tau
            kol = kolmogorov_distance(z)
            record_at[n] = EstimatorBeRecord(
                theta=theta, n=n, reps=reps, kolmogorov=kol,
                sqrt_n_kolmogorov=float(np.sqrt(n) * kol),
                gamma_hat=gamma_hat, excluded=int((~ok).sum()))
        records.extend(record_at[int(n)] for n in n_list)

    flat = be_flat([max(r.sqrt_n_kolmogorov for r in records if r.n == n)
                    for n in horizons], horizons[-1], ecdf_se(reps))
    gammas = [max(r.gamma_hat for r in records if r.n == n) for n in horizons]
    gamma_ok = all(b <= a + 1e-12 for a, b in zip(gammas[:-1], gammas[1:]))
    c_hat = max(r.sqrt_n_kolmogorov / (1.0 + np.sqrt(r.n) * r.gamma_hat)
                for r in records)
    return CheckResult(records, flat and gamma_ok, {
        "alpha0": {str(t): problem.alpha0[t] for t in problem.thetas},
        "tau": {str(t): problem.tau[t] for t in problem.thetas},
        "d_ball": problem.d_ball,
        "C_hat_empirical": float(c_hat),
        "gamma_hat_final": float(gammas[-1]),
        "note": ("C_hat_empirical is the observed max of sqrt(n) * distance "
                 "/ (1 + sqrt(n) * gamma_hat); it does not bound the "
                 "theoretical constant"),
    })
