"""Seeded, reproducible trajectory simulation for discrete and continuous time.

Every call draws from one counter-based Philox stream keyed by a sha256
payload (spec hash and seed; mestim's edge counts use kernel bytes and seed)
in a fixed order, so batches are a pure function of (spec, horizons,
n_paths, seed). Discrete time has one stepping kernel, shared with
mestim.simulate_edge_counts and increment_panel. It steps by block paths:
one move uniform per path draws the next B steps at once, as the inverse
CDF of the exact B-step path law from the path's state, found by a binary
search over a flat table of the S^B paths' cumulative probabilities. B
depends only on the state count, the path count and the extra uniforms per
step (B = 1 is single-step stepping), and the last draw of a run keeps
only the steps left. The kernel yields whole blocks of states, so all other
work is done once per block. One chain per path serves a whole list of
horizons: it runs to the largest one and is read at each on the way. Given
the path, Y_n is the sum of the edge atoms' means plus one Gaussian with
their summed covariance, which simulate_discrete draws once per path and
segment between horizons, after the segment's last step; increment_panel
alone draws per-step increments. Continuous time steps one jump at a time.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedInitial
from .map_model import CtMapSpec, MapSpec


def _ndtri(u):
    """Standard normal quantile (scipy.special.ndtri, imported on first use)."""
    from scipy.special import ndtri
    return ndtri(u)


def spec_content_hash(spec) -> str:
    """Stable content hash of a spec (kernel, laws, rewards), cached on it."""
    return spec.content_hash


@dataclass(frozen=True)
class TrajectoryBatch:
    """Immutable simulation output: terminal additive values plus metadata."""

    spec_id: str
    horizon: float
    n_paths: int
    seed: int
    terminal_Y: np.ndarray              # (n_paths, d)
    terminal_X: np.ndarray = None
    increment_panel: np.ndarray = None  # (n_paths, n_steps) when requested
    integer_part_Y: np.ndarray = None   # Y at floor(t), continuous time only

    def __post_init__(self):
        for name in ("terminal_Y", "terminal_X", "increment_panel",
                     "integer_part_Y"):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)


def _philox(payload: bytes) -> np.random.Generator:
    """The package's one RNG: Philox keyed by the first 16 bytes of sha256."""
    key = int.from_bytes(hashlib.sha256(payload).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def _initial_law(pi, mu) -> np.ndarray:
    """mu as a probability vector on the support of pi, else UnsupportedInitial."""
    probs = np.asarray(mu, dtype=float)
    if (probs.shape != pi.shape or not np.isfinite(probs).all()
            or abs(probs.sum() - 1.0) > 1e-9 or (probs < 0).any()):
        raise UnsupportedInitial("initial distribution is not a probability vector")
    if (probs[pi == 0] > 0).any():
        raise UnsupportedInitial("initial mass outside the support of pi")
    return probs


def _initial_states(spec, mu, n_paths, rng):
    """X_0 ~ pi (or mu): the inverse CDF of one uniform per path."""
    pi = spec.pi
    probs = pi if mu is None else _initial_law(pi, mu)
    u = rng.random(n_paths)
    return _search(*_cdf_table(np.cumsum(probs)[None]),
                   np.zeros(n_paths, dtype=np.intp), u)


def _horizons(n, at):
    """[n], or at checked to be a strictly increasing list of horizons from
    0 or more up to n."""
    if at is None:
        return [n]
    at = [int(h) for h in at]
    if (not at or at[0] < 0 or at[-1] != n
            or any(b <= a for a, b in zip(at, at[1:]))):
        raise ValueError(f"horizons {at} must increase strictly up to n = {n}")
    return at


_BLOCK = 1 << 16        # doubles per block of steps: ~1 MB of temporaries
_PATHS = 1 << 10        # most B-step paths per row of the path table
_DRAW = 1 << 16         # most states and extra uniforms per draw of all paths


def _cdf_table(cum):
    """(levels, width) for _search: each row of cum pinned to 1 from its
    last positive entry (its last rise) on, so that no u < 1 lands on a
    state of probability 0, the rest clipped to 1, the last column dropped
    and padded with 1s to width 2^k, so #{j : cum[row, j] <= u} stays. The
    flat table is stored once per binary-search step half, as (half, view
    shifted by half - 1), so a step gathers at its position."""
    S = cum.shape[1]
    rise = np.diff(cum, axis=1, prepend=0.0) > 0
    last = S - 1 - rise[:, ::-1].argmax(axis=1)
    width = 1 << (S - 1).bit_length()
    table = np.ones((len(cum), width))
    table[:, :S - 1] = np.where(np.arange(S - 1) < last[:, None],
                                np.minimum(cum[:, :-1], 1.0), 1.0)
    flat = table.ravel()
    halves = [width >> k for k in range(1, width.bit_length())]
    return [(h, flat[h - 1:]) for h in halves], width


def _search(levels, width, row, u):
    """#{j : cum[row, j] <= u} over a _cdf_table, i.e. (u[:, None] >=
    cum[row]).sum(1), by a branchless binary search: one flat gather per
    level, log2(width) in all, and no (N, S) gather."""
    base = row * width
    pos = base.copy()
    for half, level in levels:
        hit = level[pos] <= u
        pos += hit if half == 1 else half * hit
    pos -= base
    return pos


def _path_length(S, N, k):
    """B, the steps one move uniform draws: the largest B <= 8 with S^B <=
    _PATHS and N B (1 + k) <= _DRAW, and at least 1. It depends on the
    states S, the paths N and the extra uniforms per step k alone."""
    B = 1
    while (B < 8 and S ** (B + 1) <= _PATHS
           and N * (B + 1) * (1 + k) <= _DRAW):
        B += 1
    return B


@functools.lru_cache(maxsize=8)
def _path_table(P_bytes, S, B):
    """(levels, width, decode) of the B-step path law of the kernel whose
    (S, S) float64 bytes are P_bytes, cached across segments and calls.

    The _cdf_table holds, in row x, the cumulative probabilities of the S^B
    paths from x in lexicographic order, each the product of its
    transitions from left to right. decode[j, p] is the state after step
    j + 1 of path p, or None at B = 1, where p is that state.
    """
    P = np.frombuffer(P_bytes).reshape(S, S)
    probs = P
    for _ in range(B - 1):
        last = np.arange(probs.shape[1]) % S
        probs = (probs[:, :, None] * P[last]).reshape(S, -1)
    levels, width = _cdf_table(np.cumsum(probs, axis=1))
    decode = None if B == 1 else np.indices((S,) * B).reshape(B, -1)
    for arr in [level for _, level in levels] + [decode]:
        if arr is not None:
            arr.setflags(write=False)       # shared by every cache hit
    return levels, width, decode


def _chain_steps(P, X, n, rng, k=0):
    """The one discrete-time stepping loop: n steps of the chain from X.

    Block-path stepping: one move uniform per path draws the next B =
    _path_length(S, N, k) steps at once, as the inverse CDF (_search) of
    the B-step path law from the path's state over its S^B paths. The last
    draw keeps only its first r = n mod B steps, whose law is the r-step
    law. A draw's values are N move uniforms, then k extra uniforms per
    path for each step it keeps, step-major. A block of draws is one
    rng.random call of about _BLOCK values (at least one draw), so the
    stream is that of draw-by-draw calls. Per block it yields the states
    (m + 1, N), the block's start state first, and the extra uniforms (m,
    N, k); the next block starts from the last row. At B = 1 a draw is one
    step and no path is decoded.
    """
    N = len(X)
    S = len(P)
    B = _path_length(S, N, k)
    levels, width, decode = _path_table(
        np.asarray(P, dtype=float).tobytes(), S, B)
    block = B * max(1, _BLOCK // max(N * B * (1 + k), 1))     # steps
    draw = N * (1 + B * k)                  # values of a whole draw
    for start in range(0, n, block):
        m = min(block, n - start)
        full, r = divmod(m, B)
        u = rng.random(N * (full + (r > 0) + m * k))
        cut = full * draw
        rows = u[:cut].reshape(full, draw)
        moves = list(rows[:, :N])
        extra = rows[:, N:].reshape(full * B, N, k)
        if r:                               # the last draw, cut to r steps
            moves.append(u[cut:cut + N])
            extra = np.concatenate([extra, u[cut + N:].reshape(r, N, k)])
        states = np.empty((m + 1, N), dtype=X.dtype)
        states[0] = X
        for j, row in enumerate(moves):
            path = _search(levels, width, X, row)
            if decode is None:
                states[j + 1] = X = path
            else:
                kept = states[j * B + 1:(j + 1) * B + 1]
                X = decode[:len(kept)].take(path, axis=1, out=kept,
                                            mode="clip")[-1]
        yield states, extra


def _cov_factors(cov):
    """Cholesky factors of a (k, d, d) stack; where one fails (a singular
    d >= 2 covariance), the symmetric PSD root V sqrt(max(w, 0)) V^T. The
    members that eigh finds singular get the root from one stacked eigh."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(cov)
        roots = V * np.sqrt(w.clip(0.0))[:, None, :] @ V.transpose(0, 2, 1)
        regular = w[:, 0] > 0
        if regular.all():       # eigh sees none singular: try each member
            return roots if len(cov) == 1 else np.stack(
                [_cov_factors(c[None])[0] for c in cov])
        if regular.any():
            roots[regular] = _cov_factors(cov[regular])
        return roots


def _atom_lookup(spec: MapSpec):
    """(first, cum, mean, cov, gauss) for spec.edge_table's atom runs.

    first and cum are indexed by flat edge X*S + X': the run's first atom (a
    trailing zero atom for edges without a law) and its cumulative
    probabilities as a _cdf_table (width 1 when no run has two atoms). The
    rest are per atom; cov is regularized so that its Cholesky factor exists
    wherever the covariance is regular.
    """
    tab = spec.edge_table
    if tab["cf"]:
        raise ValueError("cf increment laws are not directly sampleable")
    S, d = spec.n_states, spec.d
    n_atoms = len(tab["prob"])
    length = np.diff(np.append(tab["start"], n_atoms))
    edges = tab["rows"] * S + tab["cols"]
    first = np.full(S * S, n_atoms)
    first[edges] = tab["start"]
    cum = np.ones((S * S, length.max()))
    for k in np.flatnonzero(length > 1):
        a, m = tab["start"][k], length[k]
        run = np.cumsum(tab["prob"][a:a + m])
        cum[edges[k]] = run[-1]         # no rise past the run's last atom
        cum[edges[k], :m] = run
    cov = np.vstack([tab["cov"], np.zeros((1, d, d))]) + 1e-300 * np.eye(d)
    cov += 1e-18 * np.trace(cov, axis1=1, axis2=2)[:, None, None] * np.eye(d)
    return (first, _cdf_table(cum), np.vstack([tab["mean"], np.zeros((1, d))]),
            cov, np.append(tab["gauss"], False))


def _edge_atoms(spec, first, cum, states, u):
    """Atom of each step's edge: the run's first atom, plus the inverse CDF
    of extra uniform 0 over the run where multi-atom runs exist."""
    edge = states[:-1] * spec.n_states + states[1:]
    atom = first.take(edge)
    if cum[1] > 1:
        atom += _search(*cum, edge, u[..., 0])
    return atom


def simulate_discrete(spec: MapSpec, n: int, n_paths: int, seed: int,
                      mu=None, keep_states: bool = False, at=None):
    """Simulate Y_n of the MAP for n_paths paths from sufficient statistics.

    X_0 ~ pi (or mu) and the chain moves through _chain_steps, with one
    extra uniform per step only where a multi-atom mixture run exists. Given
    the path, the increments are independent with laws fixed by their edges,
    so Y_n is the sum of the atom means plus one Gaussian with the summed
    atom covariance V: after the last step, Y += F(V) ndtri(u) with F(V) =
    sqrt(V) for d = 1 and _cov_factors(V) otherwise, drawn only when a
    Gaussian atom exists.

    With at, a strictly increasing list of horizons ending at n, one chain
    per path runs to n and one batch per horizon is returned. Each segment
    between horizons draws its own Gaussian from its own summed covariance
    after its last step, so Y_h2 - Y_h1 is independent of Y_h1 given the
    path. Without at, the one batch at n is returned: the one-segment case,
    on the same stream as at=[n].
    """
    horizons = _horizons(n, at)
    spec_id = spec_content_hash(spec)
    rng = _philox(f"{spec_id}:{seed}".encode())
    d = spec.d
    first, cum, mean, cov, gauss = _atom_lookup(spec)
    X = _initial_states(spec, mu, n_paths, rng)
    Y = np.zeros((n_paths, d))
    batches, done = [], 0
    for h in horizons:
        V = np.zeros((n_paths, d, d)) if gauss.any() else None
        for states, u in _chain_steps(spec.P, X, h - done, rng,
                                      int(cum[1] > 1)):
            atom = _edge_atoms(spec, first, cum, states, u)
            Y += mean.take(atom, axis=0).sum(axis=0)
            if V is not None:
                V += cov.take(atom, axis=0).sum(axis=0)
            X = states[-1]
        if V is not None:
            F = np.sqrt(V) if d == 1 else _cov_factors(V)
            Y += np.einsum("pab,pb->pa", F, _ndtri(rng.random((n_paths, d))))
        batches.append(TrajectoryBatch(
            spec_id=spec_id, horizon=h, n_paths=n_paths, seed=seed,
            terminal_Y=Y.copy() if h < n else Y,
            terminal_X=X if keep_states else None))
        done = h
    return batches if at is not None else batches[0]


def simulate_ct(ct: CtMapSpec, t: float, n_paths: int, seed: int,
                mu=None, record_steps: bool = False) -> TrajectoryBatch:
    """Exact jump-chain simulation of a continuous-time MAP up to horizon t.

    Holding times are exponential with the diagonal rates; Y accumulates
    reward * holding plus any per-transition jump increments. No time
    discretization error. Y at integer times is recorded when record_steps
    (used for skeleton-consistency checks).
    """
    spec_id = spec_content_hash(ct)
    rng = _philox(f"{spec_id}:{seed}".encode())
    G = ct.generator
    S = ct.n_states
    rates = -np.diag(G)
    embed = np.array(G)
    np.fill_diagonal(embed, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        embed = np.where(rates[:, None] > 0, embed / rates[:, None], 0.0)
    cumE = _cdf_table(np.cumsum(embed, axis=1))

    X = _initial_states(ct, mu, n_paths, rng)
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
            nxt = _search(*cumE, X[ja], u2)
            if ct.jump_increments is not None:
                Y[ja] += ct.jump_increments[X[ja], nxt]
            X[ja] = nxt
        active = active[jumped]

    if Y_at_int is None and n_int >= 1:
        Y_at_int = Y.copy()     # integer horizon: floor(t) = t
    if y_marks is not None:
        panel[:] = np.diff(y_marks, axis=1)
    return TrajectoryBatch(spec_id=spec_id, horizon=float(t), n_paths=n_paths,
                           seed=seed, terminal_Y=Y[:, None], terminal_X=X,
                           increment_panel=panel, integer_part_Y=Y_at_int)


def increment_panel(spec: MapSpec, n: int, n_paths: int, seed: int) -> np.ndarray:
    """Matrix of per-step increments xi_k = Y_k - Y_{k-1}, shape (paths, n).

    Each step draws d increment uniforms per path: uniform 0 picks the atom
    within a multi-atom run, and Gaussian atoms add chol @ ndtri(u).
    Skeleton specs (cf laws) are delegated to exact continuous-time
    simulation.
    """
    if spec.ct_origin is not None:
        return simulate_ct(spec.ct_origin, float(n), n_paths, seed,
                           record_steps=True).increment_panel
    rng = _philox(f"{spec_content_hash(spec)}:{seed}".encode())
    first, cum, mean, cov, gauss = _atom_lookup(spec)
    chol = _cov_factors(cov)
    X = _initial_states(spec, None, n_paths, rng)
    panel = np.empty((n, n_paths))
    k = 0
    for states, u in _chain_steps(spec.P, X, n, rng, spec.d):
        atom = _edge_atoms(spec, first, cum, states, u)
        inc = mean[atom, 0]
        g = gauss[atom]
        inc[g] += np.einsum("pab,pb->pa", chol[atom[g]], _ndtri(u[g]))[:, 0]
        panel[k:k + len(inc)] = inc
        k += len(inc)
    return panel.T
