"""Discrete- and continuous-time Markov additive process specifications.

A MapSpec couples a driving kernel with one increment law per supported edge,
all held in one flat atom table that the moments, the content hash, the
Fourier matrix, the sampler and the lattice search read. Exact moments of
the additive component come from a power of the block-triangular moment
transfer matrix; the asymptotic variance from the geometric correlation
series; the cumulant rates from Kato's perturbation series, whose reduced
resolvent is the group inverse of I - K for a stochastic kernel K: P in
discrete time, the uniformized I + G/q in continuous time. The matrix
exponential of continuous time, exp(G) for the skeleton and exp(A(zeta))
over a whole Fourier stack, is _expm, on numpy alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .chain_core import StochasticKernel, l2_operator_norm
from .errors import (GapAbsent, MomentUndefined, NotCentered, NotScalar,
                     NotStochastic)
from .increments import (DETERMINISTIC, GAUSSIAN, KINDS, IncrementLaw,
                         atom_moments, check_atoms)

CENTER_TOL = 1e-12
_TABLE_FIELDS = ("rows", "cols", "kind", "start", "prob", "mean", "cov")


# the coefficients b_0..b_13 of the Pade-13 approximant r_13, and theta_13,
# the 1-norm up to which r_13 meets double-precision unit roundoff (Higham
# 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(A):
    """exp(A) of an (S, S) matrix or a (K, S, S) stack, real or complex.

    Scaling and squaring with the Pade-13 approximant r_13 (Higham, SIAM J.
    Matrix Anal. Appl. 26, 2005), in numpy alone. Member k is scaled exactly
    by 2^-s_k, s_k = max(0, ceil(log2(||A_k||_1 / theta_13))); one stacked
    solve gives r_13 of every member, and squaring i touches the members
    with s_k > i only.
    """
    A = np.asarray(A)
    X = A.reshape((-1,) + A.shape[-2:])
    # ceil(log2(x)) exactly, from x = m 2^e with m in [0.5, 1)
    m, e = np.frexp(np.abs(X).sum(axis=1).max(axis=1) / _THETA13)
    s = np.maximum(e - (m == 0.5), 0)
    X = X * np.ldexp(1.0, -s)[:, None, None]
    b, eye = _PADE13, np.eye(X.shape[-1])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2) + b[7] * X6
             + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2) + b[6] * X6
         + b[4] * X4 + b[2] * X2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    for i in range(int(s.max(initial=0))):
        k = s > i
        R[k] = R[k] @ R[k]
    return R.reshape(A.shape)


def _runs(tab):
    """(i, j, kind, first atom, end atom) of each edge of an atom table, as
    Python ints in table order."""
    end = np.append(tab["start"][1:], len(tab["prob"]))
    return zip(tab["rows"].tolist(), tab["cols"].tolist(), tab["kind"].tolist(),
               tab["start"].tolist(), end.tolist())


def _content_hash(spec) -> str:
    """Stable sha256 of a spec's content (kernel, laws, rewards).

    Specs keep it as their cached content_hash, so it is computed once each.
    A discrete spec's laws come from its atom table: vectors rounded by
    ndarray.round(15), mixture probabilities by round(p, 15).
    """
    if isinstance(spec, CtMapSpec):
        payload = {
            "kind": "ct",
            "generator": np.asarray(spec.generator).round(15).tolist(),
            "reward": np.asarray(spec.reward).round(15).tolist(),
            "jump": None if spec.jump_increments is None
                    else np.asarray(spec.jump_increments).round(15).tolist(),
        }
    else:
        tab = spec.edge_table
        mean, cov = tab["mean"].round(15).tolist(), tab["cov"].round(15).tolist()
        prob = tab["prob"].tolist()
        laws = {}
        for i, j, kind, a, b in _runs(tab):
            if kind == DETERMINISTIC:
                desc = ["det", mean[a]]
            elif kind == GAUSSIAN:
                desc = ["gauss", mean[a], cov[a]]
            else:
                desc = ["mix", [[round(p, 15), v]
                                for p, v in zip(prob[a:b], mean[a:b])]]
            laws[f"{i},{j}"] = desc
        payload = {
            "kind": "discrete",
            "P": np.asarray(spec.P).round(15).tolist(),
            "laws": laws,
            "d": spec.d,
        }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()
                          ).hexdigest()


def _laws_table(increments, d) -> dict:
    """Atom table of a {(i, j): IncrementLaw} mapping, in its order: the
    laws' runs, one after another."""
    laws = list(increments.values())
    if any(law.d != d for law in laws):
        raise ValueError("increment dimension mismatch")
    edges = np.array(list(increments), dtype=int).reshape(-1, 2)
    return {"rows": edges[:, 0], "cols": edges[:, 1],
            "kind": [KINDS.index(law.kind) for law in laws],
            "start": np.cumsum([0] + [len(law.prob) for law in laws])[:-1],
            "prob": np.concatenate([law.prob for law in laws]),
            "mean": np.concatenate([law.mean for law in laws]),
            "cov": np.concatenate([law.cov for law in laws])}


def _check_support(P, rows, cols):
    """Every law on a pair of states, at most one per pair, and one on every
    edge P[i, j] > 0 (a mapping may give pairs with P[i, j] = 0 too)."""
    S = len(P)
    if ((rows < 0) | (rows >= S) | (cols < 0) | (cols >= S)).any():
        raise ValueError("an increment law for a pair outside the states")
    count = np.bincount(rows * S + cols, minlength=S * S)
    for bad, why in ((count > 1, "two increment entries for ({}, {})"),
                     (count < (P.ravel() > 0),
                      "missing increment law for edge ({}, {})")):
        if bad.any():
            raise ValueError(why.format(*divmod(int(np.argmax(bad)), S)))


def _run_sums(tab, values) -> np.ndarray:
    """sum_a p_a values[a] over each edge's run of atoms, summed from 0 in
    atom order as Python's sum over the run is (np.add.at adds in order)."""
    total = np.zeros((len(tab["start"]),) + values.shape[1:])
    np.add.at(total, tab["edge"], tab["prob"].reshape(
        (-1,) + (1,) * (values.ndim - 1)) * values)
    return total


class MapSpec:
    """Driving kernel plus one increment law per edge (discrete time).

    The laws are one read-only atom table, edge_table, built here from a
    {(i, j): IncrementLaw} mapping or a table dict (rows, cols, kind, start,
    prob, mean, cov) and checked by check_atoms and _check_support. Per
    edge, in the order given: rows, cols, kind (a code into
    increments.KINDS), weight = P[rows, cols] and start, its first atom.
    Per atom: edge, prob, mean (n, d), cov (n, d, d) and gauss (a Gaussian
    law's atom). centered=True subtracts the stationary one-step mean from
    every atom mean. increments is a view of the table, built on first use.
    """

    def __init__(self, kernel: StochasticKernel, increments: dict = None,
                 d: int = 1, centered: bool = False, table: dict = None):
        if table is None:
            table = _laws_table(increments, d)
        tab = {k: np.array(table[k], dtype=float if k in ("prob", "mean", "cov")
                           else int) for k in _TABLE_FIELDS}
        n = len(tab["prob"])
        if tab["mean"].shape != (n, d) or tab["cov"].shape != (n, d, d):
            raise ValueError("increment dimension mismatch")
        tab["edge"] = np.repeat(np.arange(len(tab["start"])),
                                np.diff(tab["start"], append=n))
        check_atoms(tab["kind"], tab["edge"], tab["prob"], tab["mean"],
                    tab["cov"])
        _check_support(kernel.P, tab["rows"], tab["cols"])
        tab["weight"] = kernel.P[tab["rows"], tab["cols"]]
        tab["gauss"] = tab["kind"][tab["edge"]] == GAUSSIAN
        self.kernel, self.d, self.centered = kernel, d, centered
        self.edge_table = tab
        if centered:
            m = exact_mean(self)
            if np.max(np.abs(m)) > CENTER_TOL:
                tab["mean"] = tab["mean"] + (-m)
        for a in tab.values():
            a.setflags(write=False)

    @property
    def pi(self):
        return self.kernel.pi

    @property
    def P(self):
        return self.kernel.P

    @property
    def n_states(self):
        return self.kernel.n_states

    def edge_mean_matrix(self) -> np.ndarray:
        """Matrix of conditional edge means, shape (S, S, d); zero off support."""
        S, tab = self.n_states, self.edge_table
        M = np.zeros((S, S, self.d))
        M[tab["rows"], tab["cols"]] = _run_sums(tab, tab["mean"])
        return M

    @cached_property
    def increments(self) -> dict:
        """{(i, j): IncrementLaw} view of the table, in its edge order: each
        law's run is a read-only slice of the table's columns (for the file
        writer and tests; no computation reads it)."""
        tab = self.edge_table
        return {(i, j): IncrementLaw(KINDS[kind], tab["prob"][a:b],
                                     tab["mean"][a:b], tab["cov"][a:b])
                for i, j, kind, a, b in _runs(tab)}

    content_hash = cached_property(_content_hash)

    @cached_property
    def moment_matrices(self) -> np.ndarray:
        """D_k = P o E[Z^k] for k = 0..4, shape (5, S, S); scalar specs only.

        Each edge's E[Z^k] is the sum of atom_moments over its atoms, as
        in IncrementLaw.moment.
        """
        if self.d != 1:
            raise MomentUndefined("scalar moments require d = 1")
        tab = self.edge_table
        D = np.zeros((5,) + self.P.shape)
        D[0] = self.P
        D[1:, tab["rows"], tab["cols"]] = (tab["weight"][:, None] * _run_sums(
            tab, atom_moments(tab["mean"], tab["cov"]))).T
        D.setflags(write=False)     # cached: every caller shares this array
        return D


@dataclass(frozen=True)
class CtMapSpec:
    """Continuous-time MAP: generator, state reward, optional jump increments.

    Y_t accumulates reward[x] per unit holding time in x plus, when given,
    jump_increments[x, x'] at each transition. uniformized is the kernel
    U = I + G/q (Jensen's uniformization), q = uniform_rate the power of two
    at or above the largest exit rate (1 if no state has one): it shares pi
    and the communicating classes with G. A generator whose Pi - G has no
    inverse in floating point is NotStochastic.
    """

    generator: np.ndarray
    reward: np.ndarray
    jump_increments: np.ndarray = None
    centered: bool = False

    def __post_init__(self):
        G = np.array(self.generator, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1] or not np.isfinite(G).all():
            raise NotStochastic("generator must be a finite square matrix")
        if np.max(np.abs(G.sum(axis=1))) > 1e-10:
            raise ValueError("generator rows must sum to 0")
        off = G - np.diag(np.diag(G))
        if (off < -1e-12).any():
            raise ValueError("off-diagonal rates must be nonnegative")
        G.setflags(write=False)
        object.__setattr__(self, "generator", G)
        # q = 2^ceil(log2(exit rate)) exactly, so off / q is exact and a
        # time change by a power of two leaves U as it is
        m, e = np.frexp(off.sum(axis=1).max())
        q = float(np.ldexp(1.0, e - (m == 0.5)))
        U = off / q
        U[np.diag_indices_from(U)] = 1.0 - U.sum(axis=1)
        # solve_stationary rejects a reducible G here
        U = StochasticKernel(states=tuple(range(len(G))), P=U)
        object.__setattr__(self, "uniformized", U)
        object.__setattr__(self, "uniform_rate", q)
        # (Pi - G) 1 = 1, so its inverse maps 1 to 1. At rates far from 1
        # (1e200, or 1e13 on a 3-state G), Pi is lost beside G: the sum is
        # singular in floating point, or its inverse, finite or not, has
        # not one correct digit left (NaN fails the comparison too). The
        # sampler could never finish such a G
        try:
            Z = np.linalg.inv(U.projector - G)
        except np.linalg.LinAlgError:
            Z = np.full(G.shape, np.nan)
        if not np.abs(Z.sum(axis=1) - 1.0).max() <= 1e-3:
            raise NotStochastic("Pi - G has no inverse in floating point "
                                "(rates too large or too small)")
        jump_flux = 0.0
        if self.jump_increments is not None:
            J = np.array(self.jump_increments, dtype=float)
            if J.shape != G.shape:
                raise ValueError("jump_increments must be S x S")
            J.setflags(write=False)
            object.__setattr__(self, "jump_increments", J)
            jump_flux = (off * J).sum(axis=1)
        xi = np.array(self.reward, dtype=float)
        if xi.shape != G.shape[:1]:
            raise ValueError("reward must have one entry per state")
        if not (np.isfinite(xi).all() and np.isfinite(jump_flux).all()):
            raise ValueError("reward and jump_increments must be finite")
        if self.centered:
            # the mean rate pi(xi + (G_off o J) 1) counts the jumps too
            xi = xi - U.pi @ (xi + jump_flux)
        xi.setflags(write=False)
        object.__setattr__(self, "reward", xi)

    @property
    def pi(self) -> np.ndarray:
        return self.uniformized.pi

    @property
    def n_states(self) -> int:
        return self.generator.shape[0]

    content_hash = cached_property(_content_hash)

    def fourier_generator(self, zeta) -> np.ndarray:
        """A(zeta), with exp(t A(zeta)) the time-t Fourier operator.

        A scalar zeta gives one (S, S) matrix, an array of K points a
        (K, S, S) stack.
        """
        z = np.asarray(zeta, dtype=float)[..., None, None]
        G = self.generator
        if self.jump_increments is not None:
            off = ~np.eye(self.n_states, dtype=bool)
            G = G * np.exp(1j * z * np.where(off, self.jump_increments, 0.0))
        return G + 1j * z * np.diag(self.reward)


def exact_mean(spec: MapSpec) -> np.ndarray:
    """Exact stationary one-step mean E[Y_1]; additivity gives E[Y_n] = n * mean.

    The terms pi_i P_ij E[Z_ij] are added one at a time in table order
    (cumsum is sequential), as an edge loop from 0 would.
    """
    tab = spec.edge_table
    terms = ((spec.pi[tab["rows"]] * tab["weight"])[:, None]
             * _run_sums(tab, tab["mean"]))
    return np.cumsum(terms, axis=0)[-1]


def exact_moments(spec: MapSpec, n: int, k: int) -> float:
    """Exact E[Y_n^k] under pi for a scalar spec, k <= 4.

    The row vectors m_j(x) = E[Y_t^j 1{X_t = x}], j = 0..k, move one step by
    the binomial convolution m_j <- sum_r C(j, r) m_r D_{j-r}, D_k = P o E[Z^k].
    That is one block-upper-triangular transfer matrix with (r, j) block
    C(j, r) D_{j-r}, so n steps are one matrix power (O(log n) products).
    """
    if spec.d != 1:
        raise MomentUndefined("exact_moments requires d = 1")
    if not 1 <= k <= 4 or n < 0:
        raise ValueError("need a moment order in 1..4 and a horizon n >= 0")
    S, D = spec.n_states, spec.moment_matrices
    T = np.zeros(((k + 1) * S, (k + 1) * S))
    for j in range(k + 1):
        for r in range(j + 1):
            T[r * S:(r + 1) * S, j * S:(j + 1) * S] = comb(j, r) * D[j - r]
    # row 0 of the block vector starts at pi; E[Y_n^k] sums block k
    Tn = np.linalg.matrix_power(T, int(n))
    return float(spec.pi @ Tn[:S, k * S:].sum(axis=1))


def _contraction_horizon(spec: MapSpec):
    """Smallest tau <= 64 with kappa = ||P^tau - Pi||_2 < 1, or GapAbsent."""
    Pi = spec.kernel.projector
    power = np.array(spec.P)
    for tau in range(1, 65):
        kappa = l2_operator_norm(power - Pi, spec.pi)
        if kappa < 1.0 - 1e-12:
            return tau, kappa
        power = power @ spec.P
    raise GapAbsent("no L2 contraction found up to horizon 64")


def variance_series(spec: MapSpec):
    """Asymptotic covariance Sigma = lim E[Y_n Y_n*]/n of a centered spec.

    Computed as pi(second edge moment) plus twice the geometric correlation
    series; the series is summed in closed form through the fundamental
    matrix after certifying an L2 contraction (the spectral gap guarantees
    absolute convergence). Returns a scalar for d = 1, a (d, d) matrix
    otherwise.
    """
    if not spec.centered and np.max(np.abs(exact_mean(spec))) > 1e-10:
        raise NotCentered("variance_series requires a centered spec")
    S, d, P, pi = spec.n_states, spec.d, spec.P, spec.pi

    # s2[x] = E[Z Z* | X_0 = x]: edge e adds P_e sum_a p_a (C_a + m_a m_a*)
    tab = spec.edge_table
    m = tab["mean"]
    second = _run_sums(tab, tab["cov"] + m[:, :, None] * m[:, None, :])
    s2 = np.zeros((S, d, d))
    np.add.at(s2, tab["rows"], tab["weight"][:, None, None] * second)
    base = np.einsum("x,xab->ab", pi, s2)

    # cross terms: E[Z_1 Z_{1+l}*] = sum_e pi_i P_ij m_ij (P^{l-1} a)(j)
    EM = spec.edge_mean_matrix()                       # (S, S, d)
    a = np.einsum("ij,ija->ia", P, EM)                 # conditional mean from state
    w = np.einsum("i,ij,ija->ja", pi, P, EM)           # weight landing in state j

    _contraction_horizon(spec)      # certify summability (GapAbsent otherwise)
    # sum_{l>=1} P^{l-1} a = Z a exactly, Z = (I - P + Pi)^{-1}, since pi a = 0
    Za = spec.kernel.fundamental @ a
    cross_half = np.einsum("ja,jb->ab", w, Za)
    cross = cross_half + cross_half.T
    Sigma = base + cross
    return float(Sigma[0, 0]) if d == 1 else Sigma


def cumulant_rates(spec) -> tuple:
    """(mean rate, sigma^2, mu_3): the first three cumulant rates
    lim kappa_k(Y_n)/n of a scalar spec (MomentUndefined otherwise).

    Kato's series for the simple eigenvalue 1 of K + t A1 + t^2/2 A2 +
    t^3/6 A3 (left vector pi, right vector 1) gives its derivatives l_k at
    t = 0, with the reduced resolvent Q = K.fundamental - Pi, the group
    inverse of I - K. Discrete time: K = P, A_k = P o E[Z^k], the eigenvalue
    is lambda(t) and the cumulant rates are the derivatives of log lambda.
    Continuous time: K = U = I + G/q and A_k = B_k / q, with B1 = diag(xi) +
    G_off o J and B_k = G_off o J^k; the eigenvalue is 1 + eta(t)/q, eta
    the generator eigenvalue whose derivatives are the cumulant rates, so
    they are q l_k.
    """
    ct = isinstance(spec, CtMapSpec)
    if ct:
        K, q = spec.uniformized, spec.uniform_rate
        G = spec.generator
        off = G - np.diag(np.diag(G))
        J = 0.0 if spec.jump_increments is None else spec.jump_increments
        A1 = (np.diag(spec.reward) + off * J) / q
        A2, A3 = off * J ** 2 / q, off * J ** 3 / q
    else:
        if spec.d != 1:
            raise MomentUndefined("cumulant rates require d = 1")
        K = spec.kernel
        _, A1, A2, A3, _ = spec.moment_matrices
    pi, Q = K.pi, K.fundamental - K.projector
    one = np.ones(len(pi))
    a1 = A1 @ one
    l1, r1 = pi @ a1, Q @ a1
    b2 = 2.0 * A1 @ r1 + A2 @ one
    l2 = pi @ b2
    r2 = Q @ (b2 - 2.0 * l1 * r1)
    l3 = pi @ (3.0 * A1 @ r2 + 3.0 * A2 @ r1 + A3 @ one)
    if ct:
        return float(q * l1), float(q * l2), float(q * l3)
    return float(l1), float(l2 - l1 ** 2), float(l3 - 3.0 * l1 * l2
                                                 + 2.0 * l1 ** 3)


def third_cumulant_rate(spec) -> float:
    """mu_3 = lim E[(Y_n - n m)^3]/n, the third entry of cumulant_rates; for
    a centered spec it equals lim E[Y_n^3]/n."""
    return cumulant_rates(spec)[2]


@dataclass(frozen=True)
class LatticeReport:
    """Outcome of detect_lattice: if is_lattice, Y_n + beta(X_n) - beta(X_0) -
    n shift lies in span Z (is 0 if span is 0); beta is NaN where pi is 0."""

    is_lattice: bool
    span: float = 0.0
    shift: float = 0.0
    beta: np.ndarray = None


def _real_gcd(values, tol):
    """Approximate gcd of the values above the absolute tol (0.0 if there
    are none); None if they are incommensurable at tol: the Euclidean
    remainders fall below tol without a common divisor, or a value is no
    multiple of the result.
    """
    vals = sorted(v for v in values if v > tol)
    g = vals[0] if vals else 0.0
    for v in vals:
        while v > tol:      # Euclid on (g, v); as g <= v, the first step swaps
            g, v = v, g % v
    if g > 1000 * tol and all(abs(x / g - round(x / g)) * g <= tol
                              for x in vals):
        return g
    return None if vals else 0.0


def detect_lattice(spec: MapSpec, tol: float = 1e-9) -> LatticeReport:
    """The Markov lattice condition, decided in one pass over the live atoms:
    those with probability and pi_i P_ij of their edge (i, j) both positive.

    A live atom with positive variance means nonlattice. Otherwise a spanning
    tree of the live edges gives beta_0 and the signed tree depth h, and with
    beta = beta_0 + a h an atom's residual v + beta(j) - beta(i) - a is
    r + a c, with c = h(j) - h(i) - 1. The shift a zeroes the first residual
    with c != 0 (else a = 0). Any lattice moves to this a with its span
    divided by |c|, so the spec is lattice iff the |r + a c| have a real gcd,
    the span (|a| when it is 0).

    tol is relative to the largest |increment| of a live atom, whose
    rounding the residuals carry, so scaling the increments by s keeps the
    verdict and scales the span by s. (The residuals themselves can be all
    rounding, where each is 0 in exact arithmetic.)
    """
    if spec.d != 1:
        raise NotScalar("lattice detection requires d = 1")
    tab = spec.edge_table
    live_edge = spec.pi[tab["rows"]] * tab["weight"] > 0
    live = (tab["prob"] > 0) & live_edge[tab["edge"]]
    if (tab["cov"][live, 0, 0] > 0).any():
        return LatticeReport(is_lattice=False)
    rows, cols = (tab[k][tab["edge"][live]] for k in ("rows", "cols"))
    v = tab["mean"][live, 0]
    tol *= float(np.abs(v).max())
    adj = [[] for _ in range(spec.n_states)]
    for i, j, vk in zip(rows.tolist(), cols.tolist(), v.tolist()):
        adj[i].append((j, vk, 1))
        adj[j].append((i, vk, -1))    # traverse edges both ways in the tree
    beta0, h = [None] * len(adj), [0] * len(adj)
    stack = [int(rows[0])]
    beta0[stack[0]] = 0.0
    while stack:
        x = stack.pop()
        for y, vk, sign in adj[x]:
            if beta0[y] is None:     # the tree edge's residual is 0 at any a
                beta0[y], h[y] = beta0[x] - sign * vk, h[x] + sign
                stack.append(y)
    beta0, h = np.array(beta0, dtype=float), np.array(h)
    r, c = v + beta0[cols] - beta0[rows], h[cols] - h[rows] - 1
    first = np.flatnonzero(c)
    a = float(-r[first[0]] / c[first[0]]) if len(first) else 0.0
    g = _real_gcd(np.abs(r + a * c).tolist(), tol=tol)
    if g is None:
        return LatticeReport(is_lattice=False)
    span = g if g > 0 else (abs(a) if abs(a) > tol else 0.0)
    return LatticeReport(is_lattice=True, span=span, shift=a,
                         beta=beta0 + a * h)


def ct_sample_skeleton(ct: CtMapSpec) -> StochasticKernel:
    """Kernel of the time-1 skeleton of a continuous-time MAP: exp(G), with
    roundoff negatives clipped and the rows renormalised."""
    P = np.clip(_expm(ct.generator), 0.0, None)
    P /= P.sum(axis=1, keepdims=True)
    return StochasticKernel(states=tuple(range(ct.n_states)), P=P)
