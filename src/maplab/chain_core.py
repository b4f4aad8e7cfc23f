"""Finite-state Markov kernels and their L2(pi) geometry.

Everything here is deterministic linear algebra: stationary distributions by
direct solve, operator norms by weighted SVD, mixing bounds by powering the
centered kernel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonIrreducible, NotStochastic, ZeroMassState

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10


def _closed_classes(P: np.ndarray) -> list[np.ndarray]:
    """Return the closed (recurrent) communicating classes of a support graph.

    R, the reflexive transitive closure of the support, comes from repeated
    boolean squaring until it stops growing (about log2 S products). A state
    lies in a closed class when every state it reaches reaches it back, and
    its class is then its row of R. Each product costs O(S^3): several times
    faster than a strongly-connected-components search at S <= 32, about ten
    times slower on a 500-state ring (31 ms against 3 ms on a 2-CPU Xeon).
    """
    R = (P > 0) | np.eye(P.shape[0], dtype=bool)
    while True:
        Rf = R.astype(float)
        grown = (Rf @ Rf) > 0
        if (grown == R).all():
            break
        R = grown
    todo = ~(R & ~R.T).any(axis=1)
    closed = []
    while todo.any():
        members = np.flatnonzero(R[np.argmax(todo)])
        closed.append(members)
        todo[members] = False
    return closed


def solve_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary probability vector of a row-stochastic matrix.

    Direct linear solve of pi (P - I) = 0 with a normalization row, restricted
    to the unique closed class. Raises NotStochastic / NonIrreducible.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise NotStochastic("transition matrix must be square")
    if not np.isfinite(P).all():
        raise NotStochastic("transition matrix must be finite")
    if (P < 0).any():
        raise NotStochastic("negative transition probability")
    bad = np.abs(P.sum(axis=1) - 1.0) > ROW_SUM_TOL
    if bad.any():
        raise NotStochastic(f"rows {np.flatnonzero(bad).tolist()} do not sum to 1")

    closed = _closed_classes(P)
    if len(closed) != 1:
        raise NonIrreducible(f"{len(closed)} closed classes detected")
    members = closed[0]

    Q = P[np.ix_(members, members)]
    m = len(members)
    # (Q^T - I) pi = 0 with the last equation replaced by sum(pi) = 1.
    A = Q.T - np.eye(m)
    A[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    pi_sub = np.linalg.solve(A, b)
    pi = np.zeros(P.shape[0])
    pi[members] = pi_sub
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    if np.max(np.abs(pi @ P - pi)) > STATIONARY_TOL:
        raise NonIrreducible("stationary residual exceeds tolerance")
    return pi


@dataclass(frozen=True)
class StochasticKernel:
    """Row-stochastic matrix with its stationary distribution.

    Immutable; validated at construction (row sums, nonnegativity, unique
    stationary distribution).
    """

    states: tuple
    P: np.ndarray
    pi: np.ndarray = None

    def __post_init__(self):
        P = np.array(self.P, dtype=float)
        P.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) != P.shape[0]:
            raise NotStochastic("state labels do not match matrix dimension")
        pi = solve_stationary(P)
        if self.pi is not None:
            supplied = np.asarray(self.pi, dtype=float)
            if np.max(np.abs(supplied - pi)) > 1e-8:
                raise NotStochastic("supplied pi disagrees with recomputed pi")
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def projector(self) -> np.ndarray:
        """Rank-one projection onto constants: every row equals pi."""
        return np.tile(self.pi, (self.n_states, 1))

    @cached_property
    def fundamental(self) -> np.ndarray:
        """Read-only fundamental matrix Z = (I - P + Pi)^{-1}."""
        Z = np.linalg.inv(np.eye(self.n_states) - self.P + self.projector)
        Z.setflags(write=False)
        return Z

    @cached_property
    def content_hash(self) -> str:
        """sha256 of the kernel's matrix rounded by ndarray.round(15)."""
        return hashlib.sha256(self.P.round(15).tobytes()).hexdigest()


def l2_operator_norm(A: np.ndarray, pi: np.ndarray) -> float:
    """Exact operator norm of A on L2(pi).

    Equals the largest singular value of D^{1/2} A D^{-1/2}, D = diag(pi).
    States with pi(x) = 0 are removed first; if A acts nontrivially on such a
    state, ZeroMassState is raised.
    """
    A = np.asarray(A)
    pi = np.asarray(pi, dtype=float)
    supp = np.flatnonzero(pi > 0)
    if len(supp) < len(pi):
        dead = np.setdiff1d(np.arange(len(pi)), supp)
        if np.abs(A[dead, :]).max(initial=0.0) > 0 or np.abs(A[:, dead]).max(initial=0.0) > 0:
            raise ZeroMassState("operator acts on a state with pi(x)=0")
        A = A[np.ix_(supp, supp)]
        pi = pi[supp]
    w = np.sqrt(pi)
    weighted = (w[:, None] * A) / w[None, :]
    return float(np.linalg.svd(weighted, compute_uv=False)[0])


@dataclass(frozen=True)
class MixingBoundTable:
    """Certified mixing bounds ||P^{t-1} - Pi||_2 with an exponential-rate fit."""

    bounds: np.ndarray        # ||P^{t-1} - Pi||_2, t = 1..t_max
    C: float                  # fitted prefactor, bounds(t) <= C exp(-eps t)
    eps: float                # fitted rate
    gap_present: bool

    def bound(self, t: int) -> float:
        return float(self.bounds[t - 1])


def spectral_gap_report(kernel: StochasticKernel, t_max: int) -> MixingBoundTable:
    """Table of ||P^{t-1} - Pi||_2 for t = 1..t_max with a log-linear rate fit.

    The fit uses t >= 2 only; t = 1 gives the trivial ||I - Pi||_2 ~ 1.
    """
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    Pi = kernel.projector
    bounds = np.empty(t_max)
    power = np.eye(kernel.n_states)
    for t in range(1, t_max + 1):
        bounds[t - 1] = l2_operator_norm(power - Pi, kernel.pi)
        power = power @ kernel.P

    ts = np.arange(1, t_max + 1)
    fit_mask = (ts >= 2) & (bounds > 1e-300)
    if fit_mask.sum() >= 2:
        coef = np.polyfit(ts[fit_mask], np.log(bounds[fit_mask]), 1)
        eps = float(-coef[0])
        C = float(np.exp(coef[1]))
    elif fit_mask.sum() == 1:
        eps = 0.0
        C = float(bounds[fit_mask][0])
    else:
        # bounds vanish for t >= 2 (i.i.d. chain): infinitely fast decay
        eps = np.inf
        C = 0.0
    gap_present = bool((bounds < 1.0 - 1e-12).any())
    return MixingBoundTable(bounds=bounds, C=C, eps=eps, gap_present=gap_present)
