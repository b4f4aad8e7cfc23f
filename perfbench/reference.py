"""Exact reference values the benchmark checks maplab's outputs against.

Everything here is independent of maplab: plain numpy on the raw numbers the
input generator wrote. Cumulant rates come from the perturbation series of
the dominant eigenvalue through the group inverse
Q = (I - P + Pi)^-1 - Pi (discrete) or (Pi - G)^-1 - Pi (continuous time),
which is exact up to floating-point rounding.
"""

from __future__ import annotations

import numpy as np


def stationary(P: np.ndarray) -> np.ndarray:
    """Left null vector of P - I normalised to a probability vector."""
    S = P.shape[0]
    A = np.vstack([P.T - np.eye(S), np.ones(S)])
    b = np.zeros(S + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(A, b, rcond=None)[0]


def ct_stationary(G: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible generator."""
    S = G.shape[0]
    A = np.vstack([G.T, np.ones(S)])
    b = np.zeros(S + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(A, b, rcond=None)[0]


def _series(pi, Q, A1, A2, A3):
    """Eigenvalue derivatives l1, l2, l3 of M(t) = M0 + t A1 + t^2/2 A2 + ...

    M0 has simple eigenvalue with left vector pi, right vector 1 and group
    inverse Q of (eigenvalue - M0); the right vector is normalised pi r = 1.
    """
    one = np.ones(len(pi))
    l1 = pi @ A1 @ one
    r1 = Q @ (A1 @ one)
    l2 = pi @ (2 * A1 @ r1 + A2 @ one)
    r2 = Q @ (2 * A1 @ r1 + A2 @ one - 2 * l1 * r1)
    l3 = pi @ (3 * A1 @ r2 + 3 * A2 @ r1 + A3 @ one)
    return float(l1), float(l2), float(l3)


def discrete_rates(P: np.ndarray, moments) -> dict:
    """Mean, variance and third cumulant rate of Y_n / n for a scalar MAP.

    moments[k] is the S x S matrix of E[Z_ij^k] for k = 1, 2, 3 (zero off
    the support of P).
    """
    pi = stationary(P)
    S = len(pi)
    Pi = np.tile(pi, (S, 1))
    Q = np.linalg.inv(np.eye(S) - P + Pi) - Pi
    l1, l2, l3 = _series(pi, Q, *(P * moments[k] for k in (1, 2, 3)))
    return {"pi": pi, "mean_rate": l1, "sigma2": l2 - l1 ** 2,
            "mu3": l3 - 3 * l1 * l2 + 2 * l1 ** 3}


def ct_rates(G: np.ndarray, reward: np.ndarray, jumps=None) -> dict:
    """Mean, variance and third cumulant rate of Y_t / t in continuous time."""
    pi = ct_stationary(G)
    S = len(pi)
    Pi = np.tile(pi, (S, 1))
    Q = np.linalg.inv(Pi - G) - Pi
    off = G - np.diag(np.diag(G))
    J = np.zeros((S, S)) if jumps is None else np.asarray(jumps, dtype=float)
    A1 = np.diag(reward) + off * J
    eta1, eta2, eta3 = _series(pi, Q, A1, off * J ** 2, off * J ** 3)
    return {"pi": pi, "mean_rate": eta1, "sigma2": eta2, "mu3": eta3}


def l2_norm(A: np.ndarray, pi: np.ndarray) -> float:
    """Operator norm on L2(pi) of A (pi strictly positive)."""
    w = np.sqrt(pi)
    return float(np.linalg.svd(w[:, None] * A / w[None, :],
                               compute_uv=False)[0])


def mixing_bounds(P: np.ndarray, t_max: int) -> list:
    """||P^(t-1) - Pi||_2 for t = 1..t_max."""
    pi = stationary(P)
    Pi = np.tile(pi, (len(pi), 1))
    out, power = [], np.eye(len(pi))
    for _ in range(t_max):
        out.append(l2_norm(power - Pi, pi))
        power = power @ P
    return out


def edge_cf(law: dict, z: float) -> complex:
    """Characteristic function at z of one edge law in the spec format."""
    if law["kind"] == "deterministic":
        return np.exp(1j * z * law["value"][0])
    if law["kind"] == "gaussian":
        return np.exp(1j * z * law["mean"][0] - 0.5 * z * z * law["cov"][0][0])
    return sum(a["p"] * np.exp(1j * z * a["value"][0]) for a in law["atoms"])


def branch_separation(P: np.ndarray, laws: list, grid) -> float:
    """min over the grid of |lambda_1| - |lambda_2| for S(z) = P o phi(z).

    Centering multiplies every edge by the same unimodular factor, so the
    moduli are those of the uncentered laws.
    """
    worst = np.inf
    for z in grid:
        M = np.zeros(P.shape, dtype=complex)
        for law in laws:
            i, j = law["from"], law["to"]
            M[i, j] = P[i, j] * edge_cf(law, z)
        mod = np.sort(np.abs(np.linalg.eigvals(M)))[::-1]
        worst = min(worst, mod[0] - (mod[1] if len(mod) > 1 else 0.0))
    return float(worst)
