"""Seeded, reproducible trajectory simulation for discrete and continuous time.

Every call draws from one counter-based Philox stream keyed by a sha256
payload (spec hash and seed; mestim's edge counts use kernel bytes and seed)
in a fixed step-major order, so batches are a pure function of (spec,
horizon, n_paths, seed). Discrete time has one stepping kernel, shared with
mestim.simulate_edge_counts; increments come from MapSpec.edge_table by flat
edge index, Gaussian ones through the inverse CDF, so each step consumes a
fixed number of uniforms per path: one Philox draw per block of steps gives
the uniforms of step-by-step draws (the generator is counter-based). Next
states and mixture atoms come from a binary search over flat CDF tables.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import UnsupportedInitial
from .map_model import CtMapSpec, MapSpec


def spec_content_hash(spec) -> str:
    """Stable content hash of a spec (kernel, laws, rewards).

    A skeleton spec hashes as the continuous-time spec it was extracted from.
    """
    if getattr(spec, "ct_origin", None) is not None:
        return spec_content_hash(spec.ct_origin)
    h = hashlib.sha256()
    if isinstance(spec, CtMapSpec):
        payload = {
            "kind": "ct",
            "generator": np.asarray(spec.generator).round(15).tolist(),
            "reward": np.asarray(spec.reward).round(15).tolist(),
            "jump": None if spec.jump_increments is None
                    else np.asarray(spec.jump_increments).round(15).tolist(),
        }
    else:
        laws = {}
        for (i, j), law in sorted(spec.increments.items()):
            if law.kind == "deterministic":
                desc = ["det", law.value.round(15).tolist()]
            elif law.kind == "gaussian":
                desc = ["gauss", law.mean_vec.round(15).tolist(),
                        law.cov.round(15).tolist()]
            elif law.kind == "mixture":
                desc = ["mix", [[round(p, 15), v.round(15).tolist()]
                                for p, v in law.atoms]]
            else:
                desc = ["cf", "None"]     # fixed: hashes must stay stable
            laws[f"{i},{j}"] = desc
        payload = {
            "kind": "discrete",
            "P": np.asarray(spec.P).round(15).tolist(),
            "laws": laws,
            "d": spec.d,
        }
    h.update(json.dumps(payload, sort_keys=True).encode())
    return h.hexdigest()


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
    pi = spec.pi
    probs = pi if mu is None else _initial_law(pi, mu)
    cum = np.cumsum(probs)
    u = rng.random(n_paths)
    return np.searchsorted(cum, u, side="right").clip(0, len(pi) - 1)


_BLOCK = 1 << 18        # doubles per block of steps drawn in one call


def _cdf_table(cum):
    """(flat table, width) for _search: cum's last column pinned to 1, the rest
    clipped to 1, padded with 1s to width 2^k; #{j : cum[row, j] <= u} stays."""
    width = 1 << (cum.shape[1] - 1).bit_length()
    table = np.ones((len(cum), width))
    table[:, :cum.shape[1] - 1] = np.minimum(cum[:, :-1], 1.0)
    return table.ravel(), width


def _search(table, width, row, u):
    """#{j : table[row, j] <= u}, i.e. (u[:, None] >= cum[row]).sum(1), by a
    branchless binary search: log2(width) flat gathers, no (N, S) gather."""
    pos = row * width
    half = width >> 1
    while half:
        pos += half * (table[pos + (half - 1)] <= u)
        half >>= 1
    return pos - row * width


def _chain_steps(P, X, n, rng, d=0):
    """The one discrete-time stepping loop: n steps of the chain from X.

    Each step consumes one move uniform per path, then d increment uniforms
    per path, and yields (X, X_next, u_inc). Blocks of steps come from one
    rng.random((m, N (1 + d))) call of at most _BLOCK doubles (or one step),
    row k holding step k's draws, so the stream is that of step-by-step
    draws. X_next is the inverse CDF of row X, found by _search.
    """
    table, width = _cdf_table(np.cumsum(P, axis=1))
    N, per_step = len(X), len(X) * (1 + d)
    block = max(1, _BLOCK // max(per_step, 1))
    for start in range(0, n, block):
        for u in rng.random((min(block, n - start), per_step)):
            Xn = _search(table, width, X, u[:N])
            yield X, Xn, u[N:].reshape(N, d)
            X = Xn


def _cov_factors(cov):
    """Cholesky factors of a (k, d, d) stack; where one fails (a singular
    d >= 2 covariance), the symmetric PSD root V sqrt(max(w, 0)) V^T."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        if len(cov) > 1:
            return np.stack([_cov_factors(c[None])[0] for c in cov])
        w, V = np.linalg.eigh(cov[0])
        return (V * np.sqrt(w.clip(0.0)) @ V.T)[None]


def _atom_lookup(spec: MapSpec):
    """(first, cum, mean, chol, gauss) for spec.edge_table's atom runs.

    first and cum are indexed by flat edge X*S + X': the run's first atom (a
    trailing zero atom for edges without a law) and its cumulative
    probabilities as a _cdf_table (the last pinned to 1). The rest are per atom.
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
        cum[edges[k], :m - 1] = np.cumsum(tab["prob"][a:a + m - 1])
    cov = tab["cov"] + 1e-300 * np.eye(d)
    cov += 1e-18 * np.trace(cov, axis1=1, axis2=2)[:, None, None] * np.eye(d)
    return (first, _cdf_table(cum), np.vstack([tab["mean"], np.zeros((1, d))]),
            _cov_factors(cov), np.append(tab["gauss"], False))


def simulate_discrete(spec: MapSpec, n: int, n_paths: int, seed: int,
                      mu=None, keep_panel: bool = False,
                      keep_states: bool = False) -> TrajectoryBatch:
    """Simulate n steps of the MAP for n_paths paths.

    X_0 ~ pi (or mu) and the chain moves through _chain_steps. The edge
    X*S + X' picks an atom run of spec.edge_table, increment uniform 0 picks
    the atom within a multi-atom run, and Gaussian atoms add
    chol @ ndtri(u_inc). Skeleton specs (cf laws) are delegated to exact
    continuous-time simulation.
    """
    if spec.ct_origin is not None:
        return simulate_ct(spec.ct_origin, float(n), n_paths, seed,
                           record_steps=keep_panel)
    spec_id = spec_content_hash(spec)
    rng = _philox(f"{spec_id}:{seed}".encode())
    S, d = spec.n_states, spec.d
    first, cum, mean, chol, gauss = _atom_lookup(spec)
    has_gauss = gauss.any()
    X = _initial_states(spec, mu, n_paths, rng)
    Y = np.zeros((n_paths, d))
    panel = np.zeros((n_paths, n)) if keep_panel else None
    for k, (X_prev, X, u_inc) in enumerate(_chain_steps(spec.P, X, n, rng, d)):
        edge = X_prev * S + X
        atom = first[edge] + _search(*cum, edge, u_inc[:, 0])
        inc = mean[atom]
        if has_gauss:
            g = gauss[atom]
            g = slice(None) if g.all() else g     # skip masks on all-Gaussian steps
            inc[g] += np.einsum("pab,pb->pa", chol[atom[g]], ndtri(u_inc[g]))
        Y += inc
        if keep_panel:
            panel[:, k] = inc[:, 0]
    return TrajectoryBatch(spec_id=spec_id, horizon=n, n_paths=n_paths,
                           seed=seed, terminal_Y=Y,
                           terminal_X=X if keep_states else None,
                           increment_panel=panel)


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
    """Matrix of per-step increments xi_k = Y_k - Y_{k-1}, shape (paths, n)."""
    batch = simulate_discrete(spec, n, n_paths, seed, keep_panel=True)
    return batch.increment_panel
