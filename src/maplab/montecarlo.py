"""Seeded, reproducible trajectory simulation for discrete and continuous time.

Every sampler (simulate_discrete, simulate_ct, increment_panel and
simulate_edge_counts) draws from one counter-based Philox stream, keyed by
_stream from the model's content hash and the seed, in a fixed order, so
its output is a pure function of (model, horizons, n_paths, seed).
Discrete time has one stepping kernel, shared by the three discrete
samplers. A step picks a column of a step matrix: a (successor, atom) pair
of probability P_ij p_a for the samples, so a mixture atom is one more
outcome of the step (the kernel P itself for the edge counts). It steps by
block paths: one move uniform per path draws the next B steps at once, as
the inverse CDF of the exact B-step path law from the path's state over
its C^B column paths (C columns per step). B depends only on C and the
path count (B = 1 is single-step stepping), and the last draw of a run
keeps only the steps left. The search returns the draw's row x C^B + p of
the path table, which fixes its B edges and atoms, so the kernel decodes
no state: it yields whole blocks of rows, and each consumer reads what it
needs from them once per block: per-row tables of summed atom means and
covariances for the samples, the block's edges for panels, a per-row count
table for the edge counts, which only this module decodes. The kernel
draws the moves and nothing else, and builds its path table per call, so
nothing stays resident after a call. One chain per path serves a whole
list of horizons: it runs to the largest one and is read at each on the
way. The last draw before a horizon keeps only the steps left, so no draw
straddles one: the first horizon is the call to it alone, and at=[n] is
the plain call. Given the path, Y_n is the sum of the atoms' means plus
one Gaussian with their summed covariance, which simulate_discrete draws
once per path and segment between horizons, after the segment's last step;
increment_panel alone draws per-step increments, one uniform per step and
path after the chain's last step.
Continuous time steps one jump at a time over compact arrays of the paths
still running. One chain per path serves a whole list of times there too:
it runs to the last one and reads Y inside the dwell that holds each
earlier time, without a draw. Those reads give the integer part of Y_t and
the increment panel of a continuous-time spec.

Every inverse CDF (block paths, CT jumps, initial states) is one search,
_search over a _cdf_table: a branchless binary search over each row's
positive-probability columns, started from a guide table of equal buckets
of [0, 1) where that saves levels (Chen & Asau, 1974). It returns the same
index as the comparison sum #{j : cum_j <= u}, so the streams do not
depend on how the search is done.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .chain_core import StochasticKernel
from .errors import UnsupportedInitial
from .map_model import CtMapSpec, MapSpec
from .normal import ndtri


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

    def __post_init__(self):
        for arr in (self.terminal_Y, self.terminal_X):
            if arr is not None:
                arr.setflags(write=False)


def _philox(payload: bytes) -> np.random.Generator:
    """Philox keyed by the first 16 bytes of the sha256 of payload."""
    key = int.from_bytes(hashlib.sha256(payload).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def _stream(model, seed) -> np.random.Generator:
    """The package's one RNG key: one Philox stream per model (a spec or a
    kernel, by its content hash) and seed, any integer."""
    return _philox(f"{spec_content_hash(model)}:{seed}".encode())


def initial_law(pi, mu) -> np.ndarray:
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
    probs = pi if mu is None else initial_law(pi, mu)
    u = rng.random(n_paths)
    return _search(_cdf_table(np.cumsum(probs)[None]),
                   np.zeros(n_paths, dtype=np.intp), u)


def _horizons(n, at):
    """[n], or at checked to be a strictly increasing list of horizons from
    0 or more up to n (steps in discrete time, times in continuous time)."""
    if at is None:
        return [n]
    at = list(at)
    if not (at and 0 <= at[0] and at[-1] == n
            and all(a < b for a, b in zip(at, at[1:]))):
        raise ValueError(f"horizons {at} must increase strictly up to n = {n}")
    return at


_BLOCK = 1 << 16        # doubles per block of steps: ~1 MB of temporaries
_PATHS = 1 << 10        # most B-step paths per row of the path table
# most steps of one draw of all paths, N B: it bounds the edges a block
# decodes, and it keeps 65 536 paths or more on single-step draws (B = 1),
# where lifting it moves streams that a seeded gate depends on (ROADMAP)
_DRAW = 1 << 16


def _rises(cum):
    """Where each row of cum rises: cum[:, j] > cum[:, j - 1], with 0 before
    column 0."""
    rise = np.empty(cum.shape, dtype=bool)
    np.greater(cum[:, 0], 0.0, out=rise[:, 0])
    np.greater(cum[:, 1:], cum[:, :-1], out=rise[:, 1:])
    return rise


def _cdf_table(cum):
    """The table _search reads for the rows of cum. Each row is read
    clipped to 1 and pinned to 1 from its last positive entry (its last
    rise) on, so that no u < 1 lands on a state of probability 0; a row
    with no positive entry draws its last column. A row keeps only the
    columns it rises at: values c_0 < ... < c_{m-1} = 1, flat at a common
    row stride and padded with 1s, and a map back to their columns.

    The guide splits [0, 1) into M buckets, M = 2^k >= twice the widest
    row. For row r and bucket b it holds the start #{i : c_i <= b/M}, counted
    from the integer bucket ceil(c M) of each value; the values that can
    still be <= u for u in bucket b are those with floor(c M) = b < c M.
    Both are exact, as M is a power of two. The search runs bit_length(most
    such values in a bucket) levels from the start. Where that does not
    save two of the bit_length(m - 1) levels from the row base (narrow rows,
    as for B = 1 chains and short atom runs), the table keeps no guide. The
    flat values are stored once per level, as (half, view shifted by half -
    1), so a level gathers at its position."""
    n, S = cum.shape
    last = S - 1 - _rises(cum)[:, ::-1].argmax(axis=1)
    eff = np.where(np.arange(S) < last[:, None], np.minimum(cum, 1.0), 1.0)
    keep = _rises(eff)
    rows, cols = np.nonzero(keep)
    c = eff[keep]
    m = np.bincount(rows, minlength=n)
    depth = int(m.max() - 1).bit_length()
    M = 2 << depth
    start = None
    if depth >= 2:
        cM = c * M
        low = np.floor(cM)
        inside = low < cM                   # candidates of bucket floor(c M)
        span = np.bincount(rows[inside] * M + low[inside].astype(np.intp))
        guided = int(span.max(initial=0)).bit_length()
        if guided + 2 <= depth:
            depth = guided
            start = np.bincount(rows * (M + 1) + np.ceil(cM).astype(np.intp),
                                minlength=n * (M + 1))
            start = start.reshape(n, M + 1).cumsum(axis=1)[:, :M]
    stride = int(m.max()) + (1 << depth)
    at = rows * stride + np.arange(len(c)) - np.repeat(np.cumsum(m) - m, m)
    flat = np.ones(n * stride)
    flat[at] = c
    column = np.zeros(n * stride, dtype=np.intp)
    column[at] = cols
    if start is not None:
        start = (start + np.arange(n)[:, None] * stride).ravel()
    for arr in [column, start, flat]:       # before the level views of flat
        if arr is not None:
            arr.setflags(write=False)
    levels = [(1 << k, flat[(1 << k) - 1:]) for k in range(depth - 1, -1, -1)]
    return levels, column, start, M, stride


def _search(table, row, u, out=None):
    """#{j : cum[row, j] <= u} for u in [0, 1) over a _cdf_table, i.e. (u[:,
    None] >= cum[row]).sum(1): the guide's start for u's bucket (or the row
    base), one branchless binary-search level per flat gather, then the
    column map (into out, if given).
    """
    levels, column, start, M, stride = table
    if start is None:
        pos = row * stride
    else:
        pos = start.take(row * M + (u * M).astype(np.intp))
    for half, level in levels:
        hit = level.take(pos) <= u
        pos += hit if half == 1 else half * hit
    return column.take(pos, out=out, mode="clip")


def _path_length(C, N):
    """B, the steps one move uniform draws: the largest B <= 8 with C^B <=
    _PATHS and N B <= _DRAW, and at least 1, for C columns per step and N
    paths."""
    B = 1
    while B < 8 and C ** (B + 1) <= _PATHS and N * (B + 1) <= _DRAW:
        B += 1
    return B


def _path_table(Q, B):
    """The _cdf_table of the B-step path law of the (S, C) step matrix Q
    (_chain_steps), built once per call of the kernel.

    Row x holds the cumulative probabilities of the C^B column paths from x
    in lexicographic order, each the product of its steps from left to
    right. Its column map holds x C^B + p, so a search returns the draw's
    row index (_row_decode), not the path p alone.
    """
    S, C = Q.shape
    probs = Q
    for _ in range(B - 1):
        state = np.arange(probs.shape[1]) % C // (C // S)
        probs = (probs[:, :, None] * Q[state]).reshape(S, -1)
    levels, column, start, M, stride = _cdf_table(np.cumsum(probs, axis=1))
    column = column + np.repeat(np.arange(S) * C ** B, stride)
    return levels, column, start, M, stride


def _row_decode(S, C, B):
    """The (B, S C^B) edge table of the draw rows x C^B + p of B-step
    column paths from S states, C = S A columns per step. A row's base-C
    digits after x are its columns c_1, ..., c_B, and column c moves to
    state X = c // A: edge[j, i] = X_j C + c_{j+1} is the flat (state,
    column) edge of step j + 1 of row i, with X_0 = x. Built per call:
    cached, it costs more resident memory than building it takes time.
    """
    digits = np.indices((S,) + (C,) * B).reshape(B + 1, -1)
    state = digits[:-1] // (C // S)
    state[0] = digits[0]
    return state * C + digits[1:]


def _chain_steps(Q, X, n, rng, at=None):
    """The one discrete-time stepping loop: n steps of the chain from X.

    A step from state x picks column c of the (S, C) step matrix Q with
    probability Q[x, c] and moves to state c // A, A = C / S: Q is the
    kernel P for simulate_edge_counts, _atom_lookup's (successor, atom)
    columns for the samples.

    Block-path stepping: one move uniform per path draws the next B =
    _path_length(C, N) steps at once, as the inverse CDF (_search) of the
    B-step path law from the path's state over its C^B column paths. The
    last draw before a horizon (of _horizons(n, at)) keeps only the r < B
    steps left, whose law is the r-step law. A draw takes N move uniforms
    and the kernel draws nothing else. A block of draws is one rng.random
    call of about _BLOCK values (at least one draw), so the stream is that
    of draw-by-draw calls. Blocks end at the horizons and are drawn when
    asked for, so a caller can draw its own values at a horizon.

    Nothing is decoded: per block it yields (rows, edge, m, X), where rows
    (D, N) holds each draw's row index x C^B + p, edge is the call's
    _row_decode (B, S C^B) edge table (_draw_edges reads the block's edges
    from it), m the block's steps and X the states after its last step,
    where the next block starts. X is a new array per block, never written
    into.
    """
    N = len(X)
    S, C = Q.shape
    B = _path_length(C, N)
    table = _path_table(Q, B)
    edge = _row_decode(S, C, B)
    last = edge[-1] % C // (C // S)
    block = B * max(1, _BLOCK // max(N * B, 1))     # steps
    ends = _horizons(n, at)
    for start, end in [(s, h) for h0, h in zip([0] + ends, ends)
                       for s in range(h0, h, block)]:
        m = min(block, end - start)
        draws = -(-m // B)
        moves = rng.random(N * draws).reshape(draws, N)
        rows = np.empty((draws, N), dtype=np.intp)
        for j, move in enumerate(moves):
            row = _search(table, X, move, out=rows[j])
            steps = min(m - j * B, B)
            X = (last.take(row) if steps == B
                 else edge[steps - 1].take(row) % C // (C // S))
        yield rows, edge, m, X


def _draw_edges(rows, edge, m):
    """(m, N) flat (state, column) edges of a block's m steps, step-major:
    the B edges of each draw's row, the last draw's cut to the steps left."""
    B = len(edge)
    if B == 1:
        return rows
    edges = np.empty((m, rows.shape[1]), dtype=np.intp)
    for j, row in enumerate(rows):
        kept = edges[j * B:(j + 1) * B]
        edge[:len(kept)].take(row, axis=1, out=kept, mode="clip")
    return edges


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
    """(Q, atom, mean, cov, gauss) for spec.edge_table's atom runs.

    Q is _chain_steps' (S, S A) step matrix over (successor, atom) columns,
    A the longest run: Q[i, j A + a] = P_ij p_a for atom a of the run on
    edge (i, j), 0 elsewhere; where no run has two atoms, Q is P. atom is
    indexed by flat (state, column) edge i S A + j A + a: the run's atom a,
    or a trailing zero atom. The rest are per atom; cov is regularized so
    that its Cholesky factor exists wherever the covariance is regular.
    """
    tab = spec.edge_table
    S, d = spec.n_states, spec.d
    n_atoms, run = len(tab["prob"]), tab["edge"]
    a = np.arange(n_atoms) - tab["start"][run]      # each atom's place
    A = int(a.max(initial=0)) + 1
    at = (tab["rows"][run] * S + tab["cols"][run]) * A + a
    atom = np.full(S * S * A, n_atoms)
    atom[at] = np.arange(n_atoms)
    Q = np.zeros((S, S, A))
    Q[..., 0] = spec.P
    if A > 1:
        Q.reshape(-1)[at] = tab["weight"][run] * tab["prob"]
    cov = np.vstack([tab["cov"], np.zeros((1, d, d))]) + 1e-300 * np.eye(d)
    cov += 1e-18 * np.trace(cov, axis1=1, axis2=2)[:, None, None] * np.eye(d)
    return (Q.reshape(S, S * A), atom,
            np.vstack([tab["mean"], np.zeros((1, d))]), cov,
            np.append(tab["gauss"], False))


def _add_atoms(Y, V, atom, mean, cov):
    """Y += the summed means of atom's leading axis, V += their covariances
    (V None: no Gaussian atom)."""
    Y += mean.take(atom, axis=0).sum(axis=0)
    if V is not None:
        V += cov.take(atom, axis=0).sum(axis=0)


def simulate_discrete(spec: MapSpec, n: int, n_paths: int, seed: int,
                      mu=None, at=None):
    """Simulate Y_n of the MAP for n_paths paths from sufficient statistics.

    X_0 ~ pi (or mu) and the chain moves through _chain_steps over
    _atom_lookup's (successor, atom) columns: a step's column fixes its
    atom, a mixture's too. Given the path, the
    atoms' increments are independent, so Y_n is the sum of the atom means
    plus one Gaussian with the summed atom covariance V: after the last
    step, Y += F(V) ndtri(u) with F(V) = sqrt(V) for d = 1 and
    _cov_factors(V) otherwise, drawn only when a Gaussian atom exists.

    A draw's row fixes its B edges and so their atoms: one table per call,
    built from _row_decode's edge table, holds each row's summed atom means
    (and covariances where a Gaussian atom exists), and a whole draw adds
    its row's entries, one gather per draw. Only the cut last draw of a
    segment is decoded, into its first r edges.

    With at, a strictly increasing list of horizons ending at n, one chain
    per path runs to n and one batch per horizon is returned. Each segment
    between horizons draws its own Gaussian from its own summed covariance
    after its last step, so Y_h2 - Y_h1 is independent of Y_h1 given the
    path. Without at, the one batch at n is returned: the one-segment case,
    on the same stream as at=[n]. Every batch carries X at its horizon.
    """
    horizons = _horizons(n, at)
    rng = _stream(spec, seed)
    d = spec.d
    Q, atom, mean, cov, gauss = _atom_lookup(spec)
    X = _initial_states(spec, mu, n_paths, rng)
    Y = np.zeros((n_paths, d))
    blocks = _chain_steps(Q, X, n, rng, horizons)
    batches, t, row_mean = [], 0, None
    for h in horizons:
        V = np.zeros((n_paths, d, d)) if gauss.any() else None
        while t < h:                # the blocks of the segment up to h
            rows, edge, m, X = next(blocks)
            t += m
            if row_mean is None:            # B, and so edge, is the call's
                atoms = atom.take(edge)
                row_mean = mean.take(atoms, axis=0).sum(axis=0)
                row_cov = (None if V is None
                           else cov.take(atoms, axis=0).sum(axis=0))
            full, r = divmod(m, len(edge))
            _add_atoms(Y, V, rows[:full], row_mean, row_cov)
            if r:                           # the cut last draw
                _add_atoms(Y, V, atom.take(edge[:r].take(rows[-1], axis=1)),
                           mean, cov)
        if V is not None:
            F = np.sqrt(V) if d == 1 else _cov_factors(V)
            Y += np.einsum("pab,pb->pa", F, ndtri(rng.random((n_paths, d))))
        batches.append(TrajectoryBatch(
            spec_id=spec.content_hash, horizon=h, n_paths=n_paths, seed=seed,
            terminal_Y=Y.copy() if h < n else Y,
            terminal_X=X))
    return batches if at is not None else batches[0]


def simulate_ct(ct: CtMapSpec, t: float, n_paths: int, seed: int,
                mu=None, at=None):
    """Exact jump-chain simulation of a continuous-time MAP up to horizon t.

    Holding times are exponential with the diagonal rates; Y accumulates
    reward * holding plus any per-transition jump increments. No time
    discretization error. The loop keeps X, Y and the clock of the running
    paths as compact arrays and writes a path back once, when it stops.

    With at, a strictly increasing list of times ending at t, one chain per
    path runs to t and one batch per time is returned, on the stream of the
    plain call: reading draws nothing. An earlier time T is read in each
    dwell from pos to new_pos with pos - 1e-12 <= T <= new_pos + 1e-12, as
    Y + reward * (T - pos), the last such dwell winning; its batch carries
    no X. Each running path keeps the index and time of its next read, so
    a dwell that reaches no read costs one comparison. The last time is the
    terminal value. Without at, the one batch at t is returned.
    """
    times = _horizons(t, at)
    rng = _stream(ct, seed)
    G = ct.generator
    diag = np.diag(G)
    rates = np.where(diag < 0, -diag, 0.0)  # +0.0, not -0.0, with no exit
    embed = np.array(G)
    np.fill_diagonal(embed, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        embed = np.where(rates[:, None] > 0, embed / rates[:, None], 0.0)
    cumE = _cdf_table(np.cumsum(embed, axis=1))

    X = _initial_states(ct, mu, n_paths, rng)
    Y = np.zeros(n_paths)
    reads = np.array(times[:-1], dtype=float)   # the times before t
    due_at = np.append(reads, np.inf)
    Y_at = np.zeros((len(reads), n_paths))

    # the running paths: their indices, compact X, Y and clock, and the
    # index and time of their next read
    active, x, y, pos = (np.arange(n_paths), X.copy(), np.zeros(n_paths),
                         np.zeros(n_paths))
    nxt, due = np.zeros(n_paths, dtype=np.intp), np.full(n_paths, due_at[0])
    # at rate 0 (a state with no exit) the hold is inf, or 0/0 = nan at
    # u = 0; fmin and hold < t_left read both as no jump
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(active):
            u = rng.random(len(active))
            hold = -np.log1p(-u) / rates[x]
            t_left = t - pos
            dwell = np.fmin(hold, t_left)
            new_pos = pos + dwell
            rate_val = ct.reward[x]

            if len(reads):
                hit = np.flatnonzero(due <= new_pos + 1e-12)
                if len(hit):
                    h, k = hit, nxt[hit]
                    while len(h):   # one read per path and pass
                        end = new_pos[h]
                        Y_at[k, active[h]] = (
                            y[h] + rate_val[h] * (reads[k] - pos[h]))
                        # a read within 1e-12 of the dwell's end is read
                        # again in the next dwell
                        nxt[h] += reads[k] < end - 1e-12
                        k = k + 1
                        more = due_at[k] <= end + 1e-12
                        h, k = h[more], k[more]
                    due[hit] = due_at[nxt[hit]]

            y += rate_val * dwell
            pos = new_pos
            jumped = hold < t_left
            if not jumped.all():        # write the stopped paths back, once
                done = ~jumped
                Y[active[done]] = y[done]
                X[active[done]] = x[done]
                active, x, y, pos = (active[jumped], x[jumped], y[jumped],
                                     pos[jumped])
                if len(reads):
                    nxt, due = nxt[jumped], due[jumped]
            if len(active):
                to = _search(cumE, x, rng.random(len(active)))
                if ct.jump_increments is not None:
                    y += ct.jump_increments[x, to]
                x = to

    batches = [TrajectoryBatch(spec_id=ct.content_hash, horizon=float(h),
                               n_paths=n_paths, seed=seed,
                               terminal_Y=Yh[:, None],
                               terminal_X=X if h == t else None)
               for h, Yh in zip(times, [*Y_at, Y])]
    return batches if at is not None else batches[0]


def increment_panel(spec: MapSpec, n: int, n_paths: int, seed: int) -> np.ndarray:
    """Matrix of per-step increments xi_k = Y_k - Y_{k-1}, shape (paths, n).

    The panel is of Y's first coordinate. Each step's (successor, atom)
    column fixes its atom. On a spec with a Gaussian law, one call after
    the chain's last step draws a uniform per step and path, step-major,
    and a Gaussian atom a adds sqrt(cov[a, 0, 0]) ndtri(u): the first
    coordinate of N(m, C) is N(m_0, C_00). The continuous-time panel is the
    diff of simulate_ct's reads at 0, 1, ..., n.
    """
    rng = _stream(spec, seed)
    Q, atom, mean, cov, gauss = _atom_lookup(spec)
    X = _initial_states(spec, None, n_paths, rng)
    atoms = np.empty((n, n_paths), dtype=np.intp)
    t = 0
    for rows, edge, m, _ in _chain_steps(Q, X, n, rng):
        atom.take(_draw_edges(rows, edge, m), out=atoms[t:t + m])
        t += m
    panel = mean[atoms, 0]
    if gauss.any():
        u = rng.random((n, n_paths))
        g = gauss[atoms]
        panel[g] += np.sqrt(cov[atoms[g], 0, 0]) * ndtri(u[g])
    return panel.T


# the count table serves where its rows hold at most this many entries per
# step (S^2 <= _TALLY_WIDTH B); wider rows cost more to add than to scatter
_TALLY_WIDTH = 24


def _count_table(edge, S):
    """(S^(B+1), S^2) int8 table of a _row_decode edge table: entry [row,
    e] is the number of the B steps of the draw at row on flat edge e."""
    R = edge.shape[1]
    flat = (edge + np.arange(R) * (S * S)).ravel()
    return np.bincount(flat, minlength=R * S * S).astype(np.int8).reshape(
        R, S * S)


def _add_edges(counts, edges):
    """Add decoded steps, flat edges (s, reps), into counts (reps, S^2)."""
    reps, S2 = counts.shape
    flat = edges + np.arange(0, reps * S2, S2)
    np.add.at(counts.reshape(-1), flat.ravel(), 1)


def simulate_edge_counts(kernel: StochasticKernel, n: int, reps: int,
                         seed: int, mu=None, at=None) -> np.ndarray:
    """Transition-pair counts over n steps for reps paths, shape (reps, S, S).

    X_0 ~ pi (or mu) and the chain moves through _chain_steps over the
    kernel P, on the stream of the kernel and the seed. With at, a strictly
    increasing list of horizons ending at n, one chain per path runs to n
    and the counts at every horizon come back, shape (len(at), reps, S, S):
    the running counts at the end of the horizon's last block. As in
    simulate_discrete, the last draw before a horizon keeps only the steps
    left, so the first horizon's counts are those of the call without at to
    it, and at=[n] is the plain call.

    A draw's row fixes its B edges, so a whole draw adds its row of a count
    table built for the call (_count_table) into a per-path int16 tally,
    which goes into the int64 counts at each horizon and before it can
    overflow. The cut last draw of a segment is decoded to edges and added
    step by step (_add_edges), as is every draw where the table's rows
    would be too wide.
    """
    horizons = _horizons(n, at)
    rng = _stream(kernel, seed)
    S = kernel.n_states
    counts = np.zeros((len(horizons), reps, S * S), dtype=np.int64)
    tally, table = np.zeros((reps, S * S), dtype=np.int16), None
    X = _initial_states(kernel, mu, reps, rng)
    blocks = _chain_steps(kernel.P, X, n, rng, horizons)
    t = held = 0            # steps done, draws in the tally
    for k, h in enumerate(horizons):
        total = counts[k]
        if k:
            total += counts[k - 1]
        while t < h:                # the blocks of the segment up to h
            rows, edge, m, _ = next(blocks)
            B = len(edge)
            if t == 0 and S * S <= _TALLY_WIDTH * B:
                table = _count_table(edge, S)
            t += m
            if table is None:           # every draw decoded, a block at once
                _add_edges(total, _draw_edges(rows, edge, m))
                continue
            full, r = divmod(m, B)
            for row in rows[:full]:
                np.add(tally, table.take(row, axis=0), out=tally)
                held += 1
                if held == 32767 // B:
                    total += tally
                    tally[:] = 0
                    held = 0
            if r:                       # the cut last draw
                _add_edges(total, edge[:r].take(rows[-1], axis=1))
        total += tally
        tally[:] = 0
        held = 0
    counts = counts.reshape(len(horizons), reps, S, S)
    return counts if at is not None else counts[0]
