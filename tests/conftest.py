import dataclasses
import hashlib
import itertools
import json
from functools import cached_property
from math import comb

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import binom

from maplab import fixtures
from maplab.chain_core import StochasticKernel, l2_operator_norm
from maplab.fourier import _fourier_matrix, lambda_branch
from maplab.increments import deterministic, gaussian, mixture
from maplab.io import FormatError, kernel_from_dict
from maplab.map_model import CtMapSpec, MapSpec, _expm
from maplab.montecarlo import spec_content_hash


@pytest.fixture
def two_state():
    return fixtures.two_state()


@pytest.fixture
def ct_two_state():
    return fixtures.ct_two_state()


def random_kernel(rng, n_states):
    """Strictly positive random row-stochastic matrix (irreducible)."""
    P = rng.uniform(0.05, 1.0, size=(n_states, n_states))
    return P / P.sum(axis=1, keepdims=True)


def closed_classes_dfs(successors):
    """Closed communicating classes of a graph, by plain depth-first search.

    Test oracle for chain_core._closed_classes. successors[x] lists the
    states x can step to. reach(x) is every state a DFS from x visits; x's
    class is the part of reach(x) that reaches x back, and the class is
    closed when it is all of reach(x). Returns sorted tuples, in order.
    """
    def reach(x):
        seen, stack = {x}, [x]
        while stack:
            for y in successors[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    reached = [reach(x) for x in range(len(successors))]
    closed = set()
    for x, r in enumerate(reached):
        members = {y for y in r if x in reached[y]}
        if members == r:
            closed.add(tuple(sorted(members)))
    return sorted(closed)


def random_mixed_spec(seed, d=None):
    """Random spec whose edges mix deterministic, Gaussian and mixture laws.

    S is 1..5 and d is 1 or 2 unless given.
    """
    rng = np.random.default_rng(seed)
    S = int(rng.integers(1, 6))
    d = int(rng.integers(1, 3)) if d is None else d
    kernel = StochasticKernel(states=tuple(range(S)), P=random_kernel(rng, S))
    incs = {}
    for i in range(S):
        for j in range(S):
            kind = rng.integers(3)
            if kind == 0:
                incs[(i, j)] = deterministic(rng.normal(size=d))
            elif kind == 1:
                A = rng.normal(size=(d, d))
                incs[(i, j)] = gaussian(rng.normal(size=d), A @ A.T)
            else:
                p = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
                incs[(i, j)] = mixture([(q, rng.normal(size=d)) for q in p])
    return MapSpec(kernel=kernel, increments=incs, d=d)


def step_moments(spec, n, k):
    """E[Y_n^k] under pi by n explicit steps of the moment transfer.

    Test oracle for map_model.exact_moments: m_j(x) = E[Y_t^j 1{X_t = x}]
    moves by m_j <- sum_r C(j, r) m_r (P o E[Z^(j-r)]), one step at a time.
    """
    S, P = spec.n_states, spec.P
    D = [np.array(P)] + [np.zeros((S, S)) for _ in range(k)]
    for (i, j), law in spec.increments.items():
        for r in range(1, k + 1):
            D[r][i, j] = P[i, j] * law.moment(r)
    m = np.zeros((k + 1, S))
    m[0] = spec.pi
    for _ in range(n):
        m = np.array([sum(comb(j, r) * (m[r] @ D[j - r]) for r in range(j + 1))
                      for j in range(k + 1)])
    return float(m[k].sum())


def edge_loop_fourier(spec, zeta):
    """S_1(zeta) entry by entry, P[i, j] * law.cf(zeta) (test oracle)."""
    M = np.zeros((spec.n_states, spec.n_states), dtype=complex)
    for (i, j), law in spec.increments.items():
        M[i, j] = spec.P[i, j] * law.cf(zeta)
    return M


def fourier_power(spec, zeta, t):
    """S_t(zeta) from the one-step operator: S_1(zeta)^t from _fourier_matrix
    in discrete time (integer t), exp(t A(zeta)) in continuous time."""
    if isinstance(spec, CtMapSpec):
        return _expm(float(t) * spec.fourier_generator(float(zeta)))
    return np.linalg.matrix_power(_fourier_matrix(spec, zeta)[0], int(t))


def semigroup_residual(spec, zeta, s, t) -> float:
    """||S_{s+t}(zeta) - S_t(zeta) S_s(zeta)|| on L2(pi)."""
    A, B, C = (fourier_power(spec, zeta, u) for u in (s, t, s + t))
    return l2_operator_norm(C - B @ A, spec.pi)


def spectral_expansion(spec, zeta, n) -> tuple:
    """(lhs, main, rem, kappa) of pi S_1^n 1 = lambda^n pi Pi 1 + pi N^n 1.

    lambda and Pi at zeta come from lambda_branch(spec, [0, zeta]) and S_1
    from _fourier_matrix; N = S_1 - lambda Pi, and kappa = max |eig N| is
    the rate of the remainder.
    """
    pi = spec.pi
    f = np.ones(len(pi), dtype=complex)
    summary = lambda_branch(spec, [0.0, zeta])
    lam, proj = summary.lam[1], summary.projections[1]
    M = _fourier_matrix(spec, zeta)[0]
    N = M - lam * proj
    return (complex(pi @ (np.linalg.matrix_power(M, n) @ f)),
            complex(lam ** n * (pi @ (proj @ f))),
            complex(pi @ (np.linalg.matrix_power(N, n) @ f)),
            float(max(abs(x) for x in np.linalg.eigvals(N))))


def contour_crosscheck(spec, zeta, n: int, nodes: int = 256,
                       kappa: float = None) -> float:
    """Resolvent-contour realization of the eigenprojection and remainder.

    Test oracle for lambda_branch: Pi(zeta) is recovered by trapezoidal
    quadrature of the resolvent around the dominant eigenvalue; N(zeta)^n
    around the origin at radius kappa (default midpoint between kappa_hat
    and |lambda|). Returns the max of the two matrix residuals against the
    eigendecomposition. An eigenvalue within 1e-8 of a contour raises
    ValueError.
    """
    M = _fourier_matrix(spec, zeta)[0]
    summary = lambda_branch(spec, [0.0, zeta])
    lam, proj = summary.lam[1], summary.projections[1]
    eigs = np.linalg.eigvals(M)
    others = np.array([e for e in eigs if abs(e - lam) > 1e-10])
    kappa_hat = float(np.max(np.abs(others))) if len(others) else 0.0
    if kappa is None:
        kappa = 0.5 * (kappa_hat + abs(lam))

    def contour_integral(center, radius, weight):
        if np.min(np.abs(np.abs(eigs - center) - radius)) < 1e-8:
            raise ValueError("eigenvalue within 1e-8 of the contour")
        theta = 2 * np.pi * np.arange(nodes) / nodes
        z = center + radius * np.exp(1j * theta)
        dz = radius * 1j * np.exp(1j * theta) * (2 * np.pi / nodes)
        acc = np.zeros_like(M)
        I = np.eye(M.shape[0])
        for zk, dzk in zip(z, dz):
            acc = acc + weight(zk) * np.linalg.solve(zk * I - M, I) * dzk
        return acc / (2j * np.pi)

    # circle around the dominant eigenvalue separating it from the rest
    proj_contour = contour_integral(lam, 0.5 * (abs(lam) - kappa_hat),
                                    lambda z: 1.0)
    res_proj = float(np.linalg.norm(proj_contour - proj, 2))
    Nn = np.linalg.matrix_power(M - lam * proj, n)
    Nn_contour = contour_integral(0.0, kappa, lambda z: z ** n)
    return max(res_proj, float(np.linalg.norm(Nn_contour - Nn, 2)))


def full_nonlattice_scan(spec, K) -> tuple:
    """fourier.nonlattice_scan with eigvals at every grid point (test oracle
    for the pruned scan; the body is the unpruned scan verbatim).

    Returns (rho_hat, worst_zeta); nonlattice verdict is rho_hat < 1 - 1e-8.
    """
    K = np.asarray(K, dtype=float)
    if (K == 0).any():
        raise ValueError("scan grid must exclude 0")
    if not len(K):
        return -1.0, None
    rho = np.max(np.abs(np.linalg.eigvals(_fourier_matrix(spec, K))), axis=1)
    worst = int(np.argmax(rho))
    return float(rho[worst]), float(K[worst])


def _points(law):
    """A law's atoms as (probability, mean vector) pairs."""
    return zip(law.prob.tolist(), law.mean)


def per_kind_cf(law, zeta) -> complex:
    """IncrementLaw.cf as one branch per law kind (test oracle for the
    formula over the law's Gaussian atoms)."""
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    if law.kind == "deterministic":
        return complex(np.exp(1j * zeta @ law.mean[0]))
    if law.kind == "gaussian":
        return complex(np.exp(1j * zeta @ law.mean[0]
                              - 0.5 * zeta @ law.cov[0] @ zeta))
    return complex(sum(p * np.exp(1j * zeta @ v) for p, v in _points(law)))


def per_kind_mean(law) -> np.ndarray:
    """A law's mean, by law kind (test oracle): a mixture's sum over its
    atoms, the one atom's mean otherwise."""
    if law.kind == "mixture":
        return sum(p * v for p, v in _points(law))
    return law.mean[0].copy()


def per_kind_moment(law, k) -> float:
    """IncrementLaw.moment(k), k = 1..4, d = 1, as one branch per law kind
    (test oracle). Point masses square by pow(v, 2), as this code did."""
    if law.kind == "deterministic":
        return float(law.mean[0, 0] ** k)
    if law.kind == "gaussian":
        m, s2 = float(law.mean[0, 0]), float(law.cov[0, 0, 0])
        if k == 1:
            return m
        if k == 2:
            return m * m + s2
        if k == 3:
            return m ** 3 + 3 * m * s2
        return m ** 4 + 6 * m * m * s2 + 3 * s2 * s2
    return float(sum(p * v[0] ** k for p, v in _points(law)))


def per_kind_variance_series(spec):
    """map_model.variance_series with its edge second moments summed by one
    branch per law kind (test oracle): moment(2) for d = 1, outer products
    for d > 1. The cross terms are the same code."""
    S, d, P, pi = spec.n_states, spec.d, spec.P, spec.pi
    s2 = np.zeros((S, d, d))
    for (i, j), law in spec.increments.items():
        if d == 1:
            s2[i, 0, 0] += P[i, j] * per_kind_moment(law, 2)
        else:
            mu = per_kind_mean(law)
            if law.kind == "gaussian":
                second = law.cov[0] + np.outer(mu, mu)
            elif law.kind == "deterministic":
                second = np.outer(mu, mu)
            else:
                second = sum(p * np.outer(v, v) for p, v in _points(law))
            s2[i] += P[i, j] * second
    base = np.einsum("x,xab->ab", pi, s2)
    EM = spec.edge_mean_matrix()
    a = np.einsum("ij,ija->ia", P, EM)
    w = np.einsum("i,ij,ija->ja", pi, P, EM)
    Z = np.linalg.inv(np.eye(S) - P + spec.kernel.projector)
    cross_half = np.einsum("ja,jb->ab", w, Z @ a)
    Sigma = base + (cross_half + cross_half.T)
    return float(Sigma[0, 0]) if d == 1 else Sigma


def van_loan_moments(ct, t, k) -> np.ndarray:
    """E_pi[Y_t^j] for j = 0..k of a continuous-time spec, exactly.

    Van Loan's block-triangular matrix exponential (Van Loan 1978, "Computing
    integrals involving the matrix exponential"): the rows m_j(x) =
    E[Y_t^j 1{X_t = x}] solve m_j' = sum_r C(j, r) m_r A_{j-r}, with
    A_0 = G, A_1 = diag(xi) + G_off o J and A_i = G_off o J^i. So block
    (r, j) of T is C(j, r) A_{j-r}, and E_pi[Y_t^j] = pi expm(tT)[0, j] 1.
    """
    import scipy.linalg
    G = ct.generator
    S = len(G)
    off = G - np.diag(np.diag(G))
    J = 0.0 if ct.jump_increments is None else ct.jump_increments
    A = [G, np.diag(ct.reward) + off * J] + [off * J ** i
                                              for i in range(2, k + 1)]
    T = np.zeros(((k + 1) * S, (k + 1) * S))
    for j in range(k + 1):
        for r in range(j + 1):
            T[r * S:(r + 1) * S, j * S:(j + 1) * S] = comb(j, r) * A[j - r]
    E = scipy.linalg.expm(t * T)
    return np.array([ct.pi @ E[:S, j * S:(j + 1) * S].sum(axis=1)
                     for j in range(k + 1)])


def van_loan_cumulants(ct, t) -> np.ndarray:
    """The first three cumulants of Y_t under pi, from van_loan_moments.

    The raw moments are taken of Y_t - c t, c the stationary mean rate, so
    that they stay small: only the first cumulant moves with the shift, and
    it is c t plus the mean of the shifted Y_t whatever c is.
    """
    centered = dataclasses.replace(ct, centered=True)
    c = ct.reward[0] - centered.reward[0]
    _, m1, m2, m3 = van_loan_moments(centered, t, 3)
    return np.array([m1 + c * t, m2 - m1 ** 2,
                     m3 - 3 * m2 * m1 + 2 * m1 ** 3])


def _philox(payload):
    key = int.from_bytes(hashlib.sha256(payload).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def _initial_states(pi, mu, n_paths, rng):
    """X_0 by the inverse CDF of pi (or mu), pinned to 1 from its last
    positive entry on, so no uniform lands on a state of mass 0."""
    probs = pi if mu is None else np.asarray(mu, dtype=float)
    cum = np.cumsum(probs)
    cum[np.flatnonzero(probs > 0)[-1]:] = 1.0
    u = rng.random(n_paths)
    return (u[:, None] >= cum).sum(axis=1)


def path_length(C, N):
    """B of block-path stepping, from its rule: the largest B <= 8 with
    C^B <= 1024 and N B <= 2^16, and at least 1."""
    return max([1] + [B for B in range(1, 9)
                      if C ** B <= 1024 and N * B <= 1 << 16])


def atom_columns(spec):
    """(A, Q): the longest atom run A and the (S, S A) step matrix over
    (successor, atom) columns, built edge by edge: Q[i, j A + a] = P_ij p_a
    for atom a of the law on (i, j), and P_ij at a = 0 for an edge without
    a law (test oracle for montecarlo._atom_lookup's Q)."""
    S, P, laws = spec.n_states, spec.P, spec.increments
    A = max([1] + [len(law.prob) for law in laws.values()])
    Q = np.zeros((S, S * A))
    for i in range(S):
        for j in range(S):
            law = laws.get((i, j))
            for a, p in enumerate([1.0] if law is None else law.prob):
                Q[i, j * A + a] = P[i, j] * p
    return A, Q


def path_laws(Q, B):
    """(paths, cums): the B-step column paths as tuples from
    itertools.product, and per start state x the cumulative probabilities
    of the paths from x, each a product of Q along the path, where column c
    moves to state c // A (A = C / S; for a kernel P, A = 1 and the columns
    are the states), pinned to 1 from the last path of positive
    probability on."""
    S, C = Q.shape
    paths = list(itertools.product(range(C), repeat=B))
    cums = []
    for x in range(S):
        probs = []
        for path in paths:
            q, prev = 1.0, x
            for c in path:
                q, prev = q * Q[prev, c], c // (C // S)
            probs.append(q)
        cum = np.cumsum(probs)
        cum[max(i for i, q in enumerate(probs) if q > 0):] = 1.0
        cums.append(cum)
    return paths, cums


def _walk(paths, cums, x, u, r):
    """x, then the first r columns of the path that u draws from x."""
    return [x, *paths[int((u >= cums[x]).sum())][:r]]


def _gauss_root(cov):
    """sqrt of C_00 of the covariance cov, regularized as the sampler does:
    V = cov + 1e-300 I, then V + 1e-18 tr(V) I."""
    d = len(cov)
    V = cov + 1e-300 * np.eye(d)
    return np.sqrt((V + 1e-18 * np.trace(V) * np.eye(d))[0, 0])


def per_kind_simulate(spec, n, n_paths, seed, mu=None, B=None):
    """(Y, terminal_X, increment_panel) by a per-path loop branching per law
    kind (test oracle for increment_panel), Y the sum of each path's panel
    row: the first coordinate of Y_n.

    The chain steps over (successor, atom) columns (atom_columns). The
    stream: X_0, then per draw of B = path_length(S A, n_paths) steps (the
    last one cut to what is left) one move uniform per path, which picks
    its next B columns among the itertools.product paths by their products
    of Q; after the last step, when some law is Gaussian, one increment
    uniform per step and path, step-major. Column j A + a steps to state j,
    and the step's increment is the deterministic value, the mixture's atom
    a or a Gaussian's mean + sqrt(C_00) ndtri(u), in the first coordinate.
    """
    rng = _philox(f"{spec_content_hash(spec)}:{seed}".encode())
    S, laws = spec.n_states, spec.increments
    A, Q = atom_columns(spec)
    B = path_length(S * A, n_paths) if B is None else B
    paths, cums = path_laws(Q, B)
    X = _initial_states(spec.pi, mu, n_paths, rng)
    steps = [[] for _ in range(n_paths)]        # (x, j, a) per step
    for t in range(0, n, B):
        u = rng.random(n_paths)
        for p in range(n_paths):
            x = X[p]
            for c in _walk(paths, cums, x, u[p], min(B, n - t))[1:]:
                j, a = divmod(c, A)
                steps[p].append((x, j, a))
                x = j
            X[p] = x
    if any(law.kind == "gaussian" for law in laws.values()):
        z = ndtri(rng.random((n, n_paths)))
    Y = np.zeros(n_paths)
    panel = np.zeros((n_paths, n))
    for p in range(n_paths):
        for t, (x, j, a) in enumerate(steps[p]):
            law = laws.get((x, j))
            if law is None:
                inc = 0.0
            elif law.kind == "gaussian":
                inc = law.mean[0][0] + _gauss_root(law.cov[0]) * z[t, p]
            else:
                inc = law.mean[a][0]
            Y[p] += inc
            panel[p, t] = inc
    return Y, X, panel


def _psd_root(V):
    """Cholesky factor of V, or its symmetric PSD root where that fails."""
    try:
        return np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        w, Q = np.linalg.eigh(V)
        return Q * np.sqrt(w.clip(0.0)) @ Q.T


def stepwise_sufficient_simulate(spec, n, n_paths, seed, mu=None, B=None):
    """(terminal_Y, terminal_X) by a plain per-path loop (test oracle).

    Test oracle for montecarlo.simulate_discrete. The chain steps over
    (successor, atom) columns (atom_columns). The stream: X_0, then per
    draw of B = path_length(S A, n_paths) steps one move uniform per
    path, which picks its next B columns among the itertools.product paths
    by their products of Q. Column j A + a steps to state j, and Y adds the
    mean of atom a of the edge's law and V its Gaussian covariance; when
    some law is Gaussian, one draw ndtri(u) per path after the last step
    adds F(V) ndtri(u), with F the Cholesky factor (the PSD root where that
    fails).

    With n a list of increasing horizons, one chain runs to the last one and
    a list of (Y, X) comes back, one per horizon. The last draw before each
    horizon is cut there, and V restarts at 0 after each horizon's draw, so
    each segment between horizons draws its own Gaussian.
    """
    horizons = [n] if np.ndim(n) == 0 else list(n)
    rng = _philox(f"{spec_content_hash(spec)}:{seed}".encode())
    S, d = spec.n_states, spec.d
    laws = spec.increments
    A, Q = atom_columns(spec)
    B = path_length(S * A, n_paths) if B is None else B
    paths, cums = path_laws(Q, B)
    has_gauss = any(law.kind == "gaussian" for law in laws.values())
    X = _initial_states(spec.pi, mu, n_paths, rng)
    Y = np.zeros((n_paths, d))
    out, done = [], 0
    for h in horizons:
        V = np.zeros((n_paths, d, d))
        for t in range(done, h, B):
            u = rng.random(n_paths)
            for p in range(n_paths):
                x = X[p]
                for c in _walk(paths, cums, x, u[p], min(B, h - t))[1:]:
                    j, a = divmod(c, A)
                    law = laws.get((x, j))
                    if law is not None:
                        Y[p] += law.mean[a]
                        V[p] += law.cov[a]
                    x = j
                X[p] = x
        if has_gauss:
            z = ndtri(rng.random((n_paths, d)))
            Y += np.stack([_psd_root(v) @ zp for v, zp in zip(V, z)])
        out.append((Y.copy(), X.copy()))
        done = h
    return out[0] if np.ndim(n) == 0 else out


def skewed_mixture_exact_cdf(y, n):
    """Exact CDF of Y_n at the points y for fixtures.skewed_mixture.

    Y_n = (n - 2K) + N(0, K) with K ~ Binomial(n, 1/2) the number of Gaussian
    steps; K = 0 is a point mass at n.
    """
    y = np.asarray(y, dtype=float)[..., None]
    k = np.arange(n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        parts = np.where(k > 0, ndtr((y - (n - 2.0 * k)) / np.sqrt(k)), y >= n)
    return (binom.pmf(k, n, 0.5) * parts).sum(axis=-1)


def projected_spec(spec, w):
    """The d = 1 spec of w . Y: every edge law pushed through y -> w . y."""
    w = np.asarray(w, dtype=float)
    incs = {}
    for e, law in spec.increments.items():
        if law.kind == "gaussian":
            incs[e] = gaussian([law.mean[0] @ w], [[w @ law.cov[0] @ w]])
        elif law.kind == "mixture":
            incs[e] = mixture([(p, [v @ w]) for p, v in _points(law)])
        else:
            incs[e] = deterministic([law.mean[0] @ w])
    return MapSpec(kernel=spec.kernel, increments=incs, d=1)


def stepwise_edge_counts(kernel, n, reps, seed, mu=None, B=None):
    """(reps, S, S) transition counts by a plain per-path loop (test oracle).

    The stream is keyed by sha256 of "{kernel content hash}:{seed}", as
    every montecarlo sampler keys it: X_0, then one move uniform per path
    per draw of B = path_length(S, reps) steps, which picks the path's next
    B states among the itertools.product paths by their products of P. With
    n a list of increasing horizons, one chain runs to the last one and the
    counts at every horizon come back, shape (len(n), reps, S, S). The last
    draw before each horizon is cut there.
    """
    horizons = [n] if np.ndim(n) == 0 else list(n)
    rng = _philox(f"{spec_content_hash(kernel)}:{seed}".encode())
    S = kernel.n_states
    B = path_length(S, reps) if B is None else B
    paths, cums = path_laws(kernel.P, B)
    X = _initial_states(kernel.pi, mu, reps, rng)
    counts = np.zeros((len(horizons), reps, S, S), dtype=np.int64)
    done = 0
    for k, h in enumerate(horizons):
        if k:
            counts[k] = counts[k - 1]
        for t in range(done, h, B):
            u = rng.random(reps)
            for p in range(reps):
                walk = _walk(paths, cums, X[p], u[p], min(B, h - t))
                for a, b in zip(walk, walk[1:]):
                    counts[k, p, a, b] += 1
                X[p] = walk[-1]
        done = h
    return counts[0] if np.ndim(n) == 0 else counts


def _pinned_cdf(probs):
    """Row-wise cumulative sums of probs, each pinned to 1 from its last
    positive entry on (a row with none is all 1)."""
    cum = np.cumsum(probs, axis=1)
    for row, p in zip(cum, probs):
        row[np.flatnonzero(p > 0)[-1] if (p > 0).any() else 0:] = 1.0
    return cum


def stepwise_ct(ct, t, n_paths, seed, mu=None, record_steps=False):
    """(terminal_Y, terminal_X, increment_panel, integer_part_Y) of
    montecarlo.simulate_ct as it stood before its running paths were kept
    compact: the loop re-indexes X, Y and the clock by the active paths on
    every jump and writes the integer marks one path and one mark at a time
    (test oracle). The jump target is the comparison-sum inverse CDF over
    the pinned embedded-chain rows, X_0 is _initial_states."""
    spec_id = spec_content_hash(ct)
    rng = _philox(f"{spec_id}:{seed}".encode())
    G = ct.generator
    rates = -np.diag(G)
    embed = np.array(G)
    np.fill_diagonal(embed, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        embed = np.where(rates[:, None] > 0, embed / rates[:, None], 0.0)
    cumE = _pinned_cdf(embed)

    X = _initial_states(ct.pi, mu, n_paths, rng)
    Y = np.zeros(n_paths)
    clock = np.zeros(n_paths)
    n_int = int(np.floor(t))
    fractional = n_int >= 1 and n_int < t
    Y_at_int = np.zeros(n_paths) if fractional else None
    panel = np.zeros((n_paths, n_int)) if record_steps and n_int >= 1 else None
    y_marks = np.zeros((n_paths, n_int + 1)) if panel is not None else None

    active = np.arange(n_paths)
    while len(active):
        r = rates[X[active]]
        u = rng.random(len(active))
        with np.errstate(divide="ignore"):
            hold = np.where(r > 0, -np.log1p(-u) / np.where(r > 0, r, 1.0), np.inf)
        t_left = t - clock[active]
        dwell = np.minimum(hold, t_left)
        pos = clock[active]
        new_pos = pos + dwell
        rate_val = ct.reward[X[active]]

        if fractional:
            # value at the last integer mark, interpolated inside the dwell
            cross = (pos < n_int) & (new_pos >= n_int)
            if cross.any():
                Y_at_int[active[cross]] = (Y[active[cross]]
                                           + rate_val[cross] * (n_int - pos[cross]))
        if y_marks is not None:
            lo = np.ceil(pos - 1e-12).astype(np.int64).clip(1, None)
            hi = np.floor(new_pos + 1e-12).astype(np.int64).clip(None, n_int)
            for idx in np.flatnonzero(hi >= lo):
                p = active[idx]
                for mark in range(lo[idx], hi[idx] + 1):
                    y_marks[p, mark] = Y[p] + rate_val[idx] * (mark - pos[idx])

        Y[active] += ct.reward[X[active]] * dwell
        clock[active] += dwell
        jumped = hold < t_left
        if jumped.any():
            ja = active[jumped]
            u2 = rng.random(len(ja))
            nxt = (u2[:, None] >= cumE[X[ja]]).sum(axis=1)
            if ct.jump_increments is not None:
                Y[ja] += ct.jump_increments[X[ja], nxt]
            X[ja] = nxt
        active = active[jumped]

    if Y_at_int is None and n_int >= 1:
        Y_at_int = Y.copy()     # integer horizon: floor(t) = t
    if y_marks is not None:
        panel[:] = np.diff(y_marks, axis=1)
    return Y[:, None], X, panel, Y_at_int


def _initial_states_b1(pi, mu, n_paths, rng):
    probs = pi if mu is None else np.asarray(mu, dtype=float)
    u = rng.random(n_paths)
    return np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(pi) - 1)


def _column_tables(spec):
    """(A, cumQ, value, cov, kind): per state and (successor, atom) column
    of atom_columns, the pinned cumulative row of Q, the atom's value and
    covariance, and its law's kind (0 none or point, 1 Gaussian)."""
    S, d = spec.n_states, spec.d
    A, Q = atom_columns(spec)
    value = np.zeros((S, S * A, d))
    cov = np.zeros((S, S * A, d, d))
    kind = np.zeros((S, S * A), dtype=np.int8)
    for (i, j), law in spec.increments.items():
        for a in range(len(law.prob)):
            value[i, j * A + a] = law.mean[a]
            cov[i, j * A + a] = law.cov[a]
            kind[i, j * A + a] = law.kind == "gaussian"
    return A, _pinned_cdf(Q), value, cov, kind


def per_kind_simulate_b1(spec, n, n_paths, seed, mu=None):
    """(Y, terminal_X, increment_panel) by a loop branching per law kind.

    The single-step oracle: per_kind_simulate at B = 1, by dense tables per
    state and (successor, atom) column: atom values and Gaussian roots
    sqrt(C_00), consumed in the same stream order (X_0, then per step one
    move uniform per path and, after the last step when some law is
    Gaussian, one increment uniform per step and path).
    """
    rng = _philox(f"{spec_content_hash(spec)}:{seed}".encode())
    A, cumQ, value, cov, kind = _column_tables(spec)
    root = np.zeros(kind.shape)
    for i, c in zip(*np.nonzero(kind)):
        root[i, c] = _gauss_root(cov[i, c])
    X = _initial_states_b1(spec.pi, mu, n_paths, rng)
    states, cols = [], []
    for _ in range(n):
        col = (rng.random(n_paths)[:, None] >= cumQ[X]).sum(axis=1)
        states.append(X)
        cols.append(col)
        X = col // A
    z = ndtri(rng.random((n, n_paths))) if kind.any() else None
    Y = np.zeros(n_paths)
    panel = np.zeros((n_paths, n))
    for k, (x, col) in enumerate(zip(states, cols)):
        inc = value[x, col, 0]
        if z is not None:
            gm = kind[x, col] == 1
            inc[gm] += root[x[gm], col[gm]] * z[k, gm]
        Y += inc
        panel[:, k] = inc
    return Y, X, panel


def stepwise_sufficient_simulate_b1(spec, n, n_paths, seed, mu=None):
    """(terminal_Y, terminal_X) by a plain per-step loop (test oracle).

    The single-step oracle: stepwise_sufficient_simulate at B = 1, by dense
    tables per state and (successor, atom) column. X_0, then per step one
    move uniform per path, which picks a column of Q. Y adds the column's
    atom value and V its Gaussian covariance; when some law is Gaussian, one
    draw ndtri(u) per path after the last step adds F(V) ndtri(u), with F the
    Cholesky factor (the PSD root where that fails).

    With n a list of increasing horizons, one chain runs to the last one and
    a list of (Y, X) comes back, one per horizon; V restarts at 0 after each
    horizon's draw, so each segment between horizons draws its own Gaussian.
    """
    horizons = [n] if np.ndim(n) == 0 else list(n)
    rng = _philox(f"{spec_content_hash(spec)}:{seed}".encode())
    d = spec.d
    A, cumQ, value, cov, kind = _column_tables(spec)
    X = _initial_states_b1(spec.pi, mu, n_paths, rng)
    Y = np.zeros((n_paths, d))
    out, done = [], 0
    for h in horizons:
        V = np.zeros((n_paths, d, d))
        for _ in range(h - done):
            col = (rng.random(n_paths)[:, None] >= cumQ[X]).sum(axis=1)
            Y += value[X, col]
            V += cov[X, col]
            X = col // A
        if kind.any():
            z = ndtri(rng.random((n_paths, d)))
            Y += np.stack([_psd_root(v) @ zp for v, zp in zip(V, z)])
        out.append((Y.copy(), X))
        done = h
    return out[0] if np.ndim(n) == 0 else out


def stepwise_edge_counts_b1(kernel, n, reps, seed, mu=None):
    """(reps, S, S) transition counts by an explicit step loop (test oracle).

    The single-step oracle: stepwise_edge_counts at B = 1, by an explicit
    step loop over the kernel's cumulative rows. The stream is keyed by
    sha256 of "{kernel content hash}:{seed}": X_0, then one move uniform
    per path per step. With n a list of increasing horizons, one chain runs
    to the last one and the counts at every horizon come back, shape
    (len(n), reps, S, S).
    """
    horizons = [n] if np.ndim(n) == 0 else list(n)
    rng = _philox(f"{spec_content_hash(kernel)}:{seed}".encode())
    S = kernel.n_states
    cumP = np.cumsum(kernel.P, axis=1)
    cumP[:, -1] = 1.0
    X = _initial_states_b1(kernel.pi, mu, reps, rng)
    counts = np.zeros((reps, S * S), dtype=np.int64)
    rows = np.arange(reps)
    out, done = [], 0
    for h in horizons:
        for _ in range(h - done):
            Xn = (rng.random(reps)[:, None] >= cumP[X]).sum(axis=1)
            np.add.at(counts, (rows, X * S + Xn), 1)
            X = Xn
        out.append(counts.reshape(reps, S, S).copy())
        done = h
    return out[0] if np.ndim(n) == 0 else np.array(out)


# -- The per-law spec lifecycle as it was before the flat atom table (test
# oracle for io.map_spec_from_dict and MapSpec's table readers). The bodies
# are the earlier code (of the content hash, its discrete branch), with each
# law's fields read from its run of atoms; the shift, once
# IncrementLaw.shifted, is now a function of the law.

ORACLE_CENTER_TOL = 1e-12


def _oracle_field(doc: dict, key: str, shape, where="increment"):
    """Numeric field of doc as an array of the given shape, else FormatError."""
    value = _oracle_require(doc, key, where)
    try:
        return np.asarray(value, dtype=float).reshape(shape)
    except (TypeError, ValueError):
        raise FormatError(f"field {key!r} in {where} must be numbers of "
                          f"shape {shape}, got {value!r}") from None


def _oracle_require(doc, key, where):
    if key not in doc:
        raise FormatError(f"missing field {key!r} in {where}")
    return doc[key]


def oracle_law_from_dict(doc: dict, d: int):
    kind = _oracle_require(doc, "kind", "increment")
    if kind == "deterministic":
        return deterministic(_oracle_field(doc, "value", d))
    if kind == "gaussian":
        return gaussian(_oracle_field(doc, "mean", d),
                        _oracle_field(doc, "cov", (d, d)))
    if kind == "mixture":
        atoms = [(float(_oracle_field(a, "p", (), "mixture atom")),
                  _oracle_field(a, "value", d, "mixture atom"))
                 for a in _oracle_require(doc, "atoms", "increment")]
        return mixture(atoms)
    raise FormatError(f"unknown increment kind {kind!r}")


def oracle_spec_from_dict(doc: dict) -> "OracleSpec":
    kernel = kernel_from_dict(_oracle_require(doc, "kernel", "map spec"))
    d, S = doc.get("d", 1), kernel.n_states
    if not (isinstance(d, int) and d >= 1):
        raise FormatError(f"d must be a positive integer, got {d!r}")
    incs = {}
    for entry in _oracle_require(doc, "increments", "map spec"):
        i, j = (_oracle_require(entry, k, "increment") for k in ("from", "to"))
        if not (i in range(S) and j in range(S) and kernel.P[i, j] > 0):
            raise FormatError(f"increment for ({i}, {j}), not an edge of "
                              "the kernel")
        if (i, j) in incs:
            raise FormatError(f"two increment entries for ({i}, {j})")
        incs[(i, j)] = oracle_law_from_dict(entry, d)
    return OracleSpec(kernel=kernel, increments=incs, d=d,
                      centered=bool(doc.get("centered", False)))


def oracle_shifted(law, delta: np.ndarray):
    """Law of Z + delta (used for centering): every atom mean moves by delta.

    A shift keeps the covariance and the atom probabilities, so the new run
    skips the validation of the law constructors.
    """
    moved = law.mean + np.atleast_1d(np.asarray(delta, dtype=float))
    moved.setflags(write=False)
    return dataclasses.replace(law, mean=moved)


def oracle_mean(law) -> np.ndarray:
    """IncrementLaw.mean as it was: sum_a p_a m_a over the run, from 0."""
    return sum(p * m for p, m in _points(law))


def oracle_stationary_step_mean(kernel, increments, d) -> np.ndarray:
    m = np.zeros(d)
    for (i, j), law in increments.items():
        m += kernel.pi[i] * kernel.P[i, j] * oracle_mean(law)
    return m


def oracle_content_hash(spec) -> str:
    """Stable sha256 of a spec's content (kernel, laws, rewards).

    Specs keep it as their cached content_hash, so it is computed once each.
    """
    laws = {}
    for (i, j), law in sorted(spec.increments.items()):
        if law.kind == "deterministic":
            desc = ["det", law.mean[0].round(15).tolist()]
        elif law.kind == "gaussian":
            desc = ["gauss", law.mean[0].round(15).tolist(),
                    law.cov[0].round(15).tolist()]
        else:
            desc = ["mix", [[round(p, 15), v.round(15).tolist()]
                            for p, v in _points(law)]]
        laws[f"{i},{j}"] = desc
    payload = {
        "kind": "discrete",
        "P": np.asarray(spec.P).round(15).tolist(),
        "laws": laws,
        "d": spec.d,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()
                          ).hexdigest()


@dataclasses.dataclass(frozen=True)
class OracleSpec:
    """Driving kernel plus per-edge increment laws (discrete time).

    increments maps (i, j) state-index pairs to IncrementLaw for every edge
    with P[i, j] > 0. If centered=True the edge means are shifted at
    construction so that the stationary one-step mean vanishes.
    """

    kernel: StochasticKernel
    increments: dict
    d: int = 1
    centered: bool = False

    def __post_init__(self):
        P = self.kernel.P
        edges = list(zip(*np.nonzero(P > 0)))
        incs = dict(self.increments)
        for i, j in edges:
            if (i, j) not in incs:
                raise ValueError(f"missing increment law for edge ({i}, {j})")
        for law in incs.values():
            if law.d != self.d:
                raise ValueError("increment dimension mismatch")
        if self.centered:
            m = oracle_stationary_step_mean(self.kernel, incs, self.d)
            if np.max(np.abs(m)) > ORACLE_CENTER_TOL:
                incs = {e: oracle_shifted(law, -m) for e, law in incs.items()}
        object.__setattr__(self, "increments", incs)

    @property
    def P(self):
        return self.kernel.P

    def edge_mean_matrix(self) -> np.ndarray:
        """Matrix of conditional edge means, shape (S, S, d); zero off support."""
        S = self.kernel.n_states
        M = np.zeros((S, S, self.d))
        for (i, j), law in self.increments.items():
            M[i, j] = oracle_mean(law)
        return M

    content_hash = cached_property(oracle_content_hash)

    @cached_property
    def moment_matrices(self) -> np.ndarray:
        """D_k = P o E[Z^k] for k = 0..4, shape (5, S, S); scalar specs only."""
        D = np.zeros((5,) + self.P.shape)
        D[0] = self.P
        for (i, j), law in self.increments.items():
            D[1:, i, j] = [self.P[i, j] * law.moment(k) for k in range(1, 5)]
        D.setflags(write=False)     # cached: every caller shares this array
        return D

    @cached_property
    def edge_table(self) -> dict:
        """Edges compiled once into flat arrays for the stacked Fourier matrix.

        Each edge's law is its run of Gaussian atoms (prob, mean, cov), the
        runs one after another. start[e] is the first atom of edge e and
        gauss[a] marks the atoms of Gaussian laws.
        """
        laws = self.increments.values()
        edges = np.array(list(self.increments), dtype=int).reshape(-1, 2)
        rows, cols = edges.T
        return {"rows": rows, "cols": cols, "weight": self.P[rows, cols],
                "start": np.cumsum([0] + [len(law.prob) for law in laws])[:-1],
                **{k: np.concatenate([getattr(law, k) for law in laws])
                   for k in ("prob", "mean", "cov")},
                "gauss": np.concatenate([np.full(len(law.prob),
                                                 law.kind == "gaussian")
                                         for law in laws])}


def random_spec_document(seed, S, d, centered) -> dict:
    """Random discrete spec document: a ring with self-loops plus random
    chords (dense-ish for S <= 8, about 4 successors per state above); per
    edge a
    point mass, a Gaussian (covariance 0 one time in three) or a mixture of
    1 to 4 atoms; entries in shuffled order. Some values are integers or
    -0.0, so that centering and rounding meet exact and signed zeros."""
    rng = np.random.default_rng(seed)
    ring = np.eye(S, dtype=bool) | np.roll(np.eye(S, dtype=bool), 1, axis=1)
    chords = rng.random((S, S)) < (0.6 if S <= 8 else 2.0 / S)
    P = rng.uniform(0.1, 1.0, (S, S)) * (ring | chords)
    P /= P.sum(axis=1, keepdims=True)

    def vector():
        pick = rng.integers(4)
        if pick == 0:
            return [float(v) for v in rng.integers(-2, 3, d)]
        if pick == 1:
            return [-0.0] * d
        return (rng.normal(size=d) * 10.0 ** rng.integers(-3, 3)).tolist()

    entries = []
    for i, j in zip(*np.nonzero(P)):
        entry = {"from": int(i), "to": int(j)}
        kind = rng.integers(3)
        if kind == 0:
            entry.update(kind="deterministic", value=vector())
        elif kind == 1:
            A = rng.normal(size=(d, d)) * (rng.integers(3) > 0)
            entry.update(kind="gaussian", mean=vector(),
                         cov=(A @ A.T).tolist())
        else:
            p = rng.dirichlet(np.ones(int(rng.integers(1, 5))))
            entry.update(kind="mixture", atoms=[
                {"p": float(q), "value": vector()} for q in p])
        entries.append(entry)
    rng.shuffle(entries)
    return {"kernel": {"states": list(range(S)), "P": P.tolist()}, "d": d,
            "increments": entries, "centered": centered}
