"""Fourier operators of a MAP and the dominant-eigenvalue branch.

_fourier_matrix stacks S_1(zeta): the S x S complex matrix
P(x, x') phi_{x,x'}(zeta) in discrete time and exp(A(zeta)) in continuous
time. Its dominant eigenvalue branch near zeta = 0 carries the asymptotic
mean, variance and third cumulant of the additive component; lambda_branch
returns the branch and its rank-one eigenprojection Pi, which give the exact
decomposition S_1(zeta)^n = lambda^n Pi(zeta) + N(zeta)^n with
N = S_1 - lambda Pi. Y is real, so S_1(-zeta), lambda(-zeta) and Pi(-zeta)
are the conjugates of their values at zeta; lambda_branch decomposes each
|zeta| once. nonlattice_certificate fails a lattice spec exactly and scans
any other."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchCollision, NonFiniteOperator
from .map_model import CtMapSpec, _expm, cumulant_rates, detect_lattice

SEPARATION_MIN = 1e-6
NONLATTICE_RHO_MAX = 1.0 - 1e-8     # nonlattice: scanned radius below this
NONLATTICE_GRID = (0.1, 10.0, 200)  # default scan grid: k_min, k_max, k_points
BOUND_CHUNK = 16     # nonlattice_scan takes |M| this many points at a time


def _fourier_matrix(spec, zeta) -> np.ndarray:
    """Stack of S_1(zeta) over K points (K scalars or a (K, d) array).

    Discrete specs evaluate all atoms of spec.edge_table in one expression,
    each as p exp(i zeta.m - zeta.C.zeta / 2). Continuous specs give
    exp(A(zeta)). Shape (K, S, S). A stack with a non-finite entry (exp(A)
    overflows for |zeta| past about 1e20) raises NonFiniteOperator.
    """
    Z = np.asarray(zeta, dtype=float).reshape(-1, getattr(spec, "d", 1))
    if isinstance(spec, CtMapSpec):
        with np.errstate(over="ignore", invalid="ignore"):
            M = _expm(spec.fourier_generator(Z[:, 0]))
    else:
        S, tab = spec.n_states, spec.edge_table
        M = np.zeros((len(Z), S, S), dtype=complex)
        if len(tab["rows"]):
            with np.errstate(over="ignore", invalid="ignore"):
                quad = np.einsum("ka,nab,kb->kn", Z, tab["cov"], Z)
                atoms = tab["prob"] * np.exp(1j * (Z @ tab["mean"].T)
                                             - 0.5 * quad)
            M[:, tab["rows"], tab["cols"]] = tab["weight"] * np.add.reduceat(
                atoms, tab["start"], axis=1)
    finite = np.isfinite(M).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteOperator("S_1(zeta) is not finite at zeta = "
                                f"{np.squeeze(Z[~finite][0]).tolist()}")
    return M


def _dominant_decomposition(w, V, Vinv, prev_vec=None, prev_lam=None):
    """Branch selection by eigenvector overlap in one eigendecomposition.

    w, V, Vinv are the eigenvalues, right eigenvectors and V^-1 of one
    matrix. Returns (lam, right_vec, projection, kappa) where kappa is the
    largest modulus among the remaining eigenvalues. With prev_vec=None the
    largest modulus eigenvalue is selected (valid at zeta = 0).
    """
    if prev_vec is None:
        idx = int(np.argmax(np.abs(w)))
    else:
        overlaps = np.abs(prev_vec.conj() @ V) / np.linalg.norm(V, axis=0)
        best = np.max(overlaps)
        ties = np.flatnonzero(overlaps > best - 1e-12)
        idx = int(ties[0])
        if len(ties) > 1 and prev_lam is not None:
            # overlap tie: prefer the eigenvalue closest to the previous one
            idx = int(ties[np.argmin(np.abs(w[ties] - prev_lam))])
    lam, r, v = w[idx], V[:, idx], Vinv[idx]
    # v, row idx of V^-1, is the left vector with v r = 1, so |r| |v| is
    # 1 / cos of the angle between the left and right vectors
    if np.linalg.norm(r) * np.linalg.norm(v) > 1e14:
        raise BranchCollision("defective dominant eigenvalue")
    kappa = max((abs(x) for k, x in enumerate(w) if k != idx), default=0.0)
    return lam, r / np.linalg.norm(r), np.outer(r, v), float(kappa)


@dataclass(frozen=True)
class SpectralSummary:
    """Dominant-eigenvalue branch over a zeta grid; at zeta < 0, lam and
    projections are the conjugates of their values at |zeta|."""

    grid: np.ndarray
    lam: np.ndarray
    projections: np.ndarray        # (n_grid, S, S) rank-one complex matrices
    kappa_hat: float
    separation: float


def lambda_branch(spec, grid) -> SpectralSummary:
    """Continuous dominant-eigenvalue branch along a scalar grid containing 0.

    The branch is decomposed and walked once, outward from 0, over the
    distinct |zeta|, which also give kappa_hat and the separation; each
    zeta < 0 reads the conjugates of lambda and Pi at |zeta|. Fails with
    BranchCollision, naming the first grid point at that |zeta|, when the
    separation |lambda| - kappa drops below 1e-6.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("lambda_branch expects a scalar zeta grid")
    moduli, at = np.unique(np.abs(grid), return_inverse=True)
    if not len(moduli) or moduli[0] != 0:
        raise ValueError("grid must contain zeta = 0")
    w, V = np.linalg.eig(_fourier_matrix(spec, moduli))
    try:
        Vinv = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        raise BranchCollision("defective Fourier matrix on the grid")
    lam = np.empty(len(moduli), dtype=complex)
    projections = np.empty((len(moduli),) + V.shape[1:], dtype=complex)
    u, kappa_hat, separation = None, 0.0, np.inf
    for k in range(len(moduli)):
        lam[k], u, projections[k], kappa = _dominant_decomposition(
            w[k], V[k], Vinv[k], u, lam[k - 1] if k else None)
        sep = abs(lam[k]) - kappa
        if sep < SEPARATION_MIN:
            raise BranchCollision(f"separation {sep:.2e} at zeta="
                                  f"{grid[np.argmax(at == k)]:g} below "
                                  f"{SEPARATION_MIN:g}")
        kappa_hat = max(kappa_hat, kappa)
        separation = min(separation, sep)
    neg = grid < 0
    lam, projections = lam[at], projections[at]
    lam[neg], projections[neg] = lam[neg].conj(), projections[neg].conj()
    return SpectralSummary(grid=grid, lam=lam, projections=projections,
                           kappa_hat=kappa_hat, separation=float(separation))


def derivatives_at_zero(spec):
    """(grad, hess, third): first three derivatives of the branch at 0.

    The branch is lambda(zeta), the dominant eigenvalue of S_1(zeta) (time 1
    in continuous time), not its logarithm. The values are exact: the
    cumulant rates k1, k2, k3 of map_model.cumulant_rates (Kato's series)
    are the derivatives of log lambda in t = i zeta, so lambda's are
    l1 = k1, l2 = k2 + k1^2 and l3 = k3 + 3 k1 k2 + k1^3, and grad = i l1,
    hess = -l2, third = -i l3. Scalar specs only (MomentUndefined otherwise).
    """
    k1, k2, k3 = cumulant_rates(spec)
    l2, l3 = k2 + k1 * k1, k3 + 3.0 * k1 * k2 + k1 ** 3
    return np.array([1j * k1]), np.array([[complex(-l2)]]), -1j * l3


def nonlattice_scan(spec, K) -> tuple:
    """Max spectral radius of S_1(zeta) over a grid excluding 0.

    Returns (rho_hat, worst_zeta). The radius is at most the row-sum bound
    b = max_x sum_y |S_1(zeta)_xy|, so eigvals runs only where b (1 + 1e-9)
    + 1e-9 reaches the radius at the largest b; every other point cannot be
    the maximum and reads -inf.
    Ties are kept, so argmax gives the full scan's result unless eigvals
    overshoots a bound by more than the margin, far past rounding.
    """
    K = np.asarray(K, dtype=float)
    if (K == 0).any():
        raise ValueError("scan grid must exclude 0")
    if not len(K):
        return -1.0, None
    M = _fourier_matrix(spec, K)
    bound = np.concatenate([np.abs(M[k:k + BOUND_CHUNK]).sum(axis=2).max(
        axis=1) for k in range(0, len(K), BOUND_CHUNK)])
    floor = np.max(np.abs(np.linalg.eigvals(M[np.argmax(bound)])))
    live = np.flatnonzero(bound * (1 + 1e-9) + 1e-9 >= floor)
    rho = np.full(len(K), -np.inf)
    rho[live] = np.max(np.abs(np.linalg.eigvals(M[live])), axis=1)
    worst = int(np.argmax(rho))
    return float(rho[worst]), float(K[worst])


def nonlattice_certificate(spec, K) -> tuple:
    """(passed, evidence) on the Markov nonlattice condition of the LLT and
    the Edgeworth expansion; evidence is rho_hat, the radius of S_1 at
    worst_zeta, and lattice, a lattice spec's span and shift (else None).
    A lattice spec fails at 2 pi / span, where the radius is 1 (at K[0] if
    span is 0: the radius is 1 at every zeta). Any other spec, continuous
    time included, passes iff nonlattice_scan over K stays below
    NONLATTICE_RHO_MAX."""
    report = None if isinstance(spec, CtMapSpec) else detect_lattice(spec)
    lattice = None
    if report is not None and report.is_lattice:
        lattice = {"span": report.span, "shift": report.shift}
        K = [2.0 * np.pi / report.span if report.span > 0 else K[0]]
    rho_hat, worst = nonlattice_scan(spec, K)
    return lattice is None and rho_hat < NONLATTICE_RHO_MAX, {
        "rho_hat": rho_hat, "worst_zeta": worst, "lattice": lattice}

