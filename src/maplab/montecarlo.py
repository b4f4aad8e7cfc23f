"""Seeded, reproducible trajectory simulation for discrete and continuous time.

All draws come from a counter-based Philox stream keyed by (seed, spec hash)
and consumed in a fixed step-major order, so batches are a pure function of
(spec, horizon, n_paths, seed) regardless of how callers parallelize around
this module. Gaussian increments go through the inverse CDF so each step
consumes a fixed number of uniforms per path.
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
    """Stable content hash of a spec (kernel, laws, rewards)."""
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
                desc = ["cf", repr(spec.ct_origin and "skeleton")]
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


def _rng_for(spec_id: str, seed: int) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(
        f"{spec_id}:{seed}".encode()).digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def _initial_states(spec, mu, n_paths, rng):
    pi = spec.pi
    if mu is None:
        probs = pi
    else:
        probs = np.asarray(mu, dtype=float)
        if probs.shape != pi.shape or abs(probs.sum() - 1.0) > 1e-9 or (probs < 0).any():
            raise UnsupportedInitial("initial distribution is not a probability vector")
        if (probs[pi == 0] > 0).any():
            raise UnsupportedInitial("initial mass outside the support of pi")
    cum = np.cumsum(probs)
    u = rng.random(n_paths)
    return np.searchsorted(cum, u, side="right").clip(0, len(pi) - 1)


def _edge_tables(spec: MapSpec):
    """Dense per-edge lookup tables for vectorized increment sampling."""
    S, d = spec.n_states, spec.d
    kinds = np.zeros((S, S), dtype=np.int8)         # 0 det, 1 gauss, 2 mixture
    det_val = np.zeros((S, S, d))
    g_mean = np.zeros((S, S, d))
    g_chol = np.zeros((S, S, d, d))
    max_atoms = 1
    for law in spec.increments.values():
        if law.kind == "mixture":
            max_atoms = max(max_atoms, len(law.atoms))
    mix_cum = np.ones((S, S, max_atoms))
    mix_val = np.zeros((S, S, max_atoms, d))
    for (i, j), law in spec.increments.items():
        if law.kind == "deterministic":
            det_val[i, j] = law.value
        elif law.kind == "gaussian":
            kinds[i, j] = 1
            g_mean[i, j] = law.mean_vec
            cov = law.cov + 1e-300 * np.eye(d)
            g_chol[i, j] = np.linalg.cholesky(cov + 1e-18 * np.trace(cov) * np.eye(d))
        elif law.kind == "mixture":
            kinds[i, j] = 2
            probs = np.array([p for p, _ in law.atoms])
            cum = np.cumsum(probs)
            mix_cum[i, j, :len(cum)] = cum
            mix_cum[i, j, len(cum):] = 1.0
            for a, (_, v) in enumerate(law.atoms):
                mix_val[i, j, a] = v
        else:
            raise ValueError("cf increment laws are not directly sampleable")
    return kinds, det_val, g_mean, g_chol, mix_cum, mix_val


def simulate_discrete(spec: MapSpec, n: int, n_paths: int, seed: int,
                      mu=None, keep_panel: bool = False,
                      keep_states: bool = False) -> TrajectoryBatch:
    """Simulate n steps of the MAP for n_paths paths.

    X_0 ~ pi (or mu); per step the chain moves by inverse-CDF sampling of its
    row and the additive component draws from the edge law. Skeleton specs
    (cf laws) are delegated to exact continuous-time simulation.
    """
    if spec.ct_origin is not None:
        batch = simulate_ct(spec.ct_origin, float(n), n_paths, seed,
                            record_steps=keep_panel)
        return batch
    spec_id = spec_content_hash(spec)
    rng = _rng_for(spec_id, seed)
    S, d = spec.n_states, spec.d
    kinds, det_val, g_mean, g_chol, mix_cum, mix_val = _edge_tables(spec)
    cumP = np.cumsum(spec.P, axis=1)
    cumP[:, -1] = 1.0

    X = _initial_states(spec, mu, n_paths, rng)
    Y = np.zeros((n_paths, d))
    panel = np.zeros((n_paths, n)) if keep_panel else None
    any_gauss = (kinds == 1).any()
    any_mix = (kinds == 2).any()
    for k in range(n):
        u_move = rng.random(n_paths)
        u_inc = rng.random((n_paths, d))
        Xn = (u_move[:, None] >= cumP[X]).sum(axis=1)
        inc = det_val[X, Xn].copy()
        if any_gauss:
            gm = kinds[X, Xn] == 1
            if gm.any():
                z = ndtri(u_inc[gm])
                inc[gm] = g_mean[X[gm], Xn[gm]] + np.einsum(
                    "pab,pb->pa", g_chol[X[gm], Xn[gm]], z)
        if any_mix:
            mm = kinds[X, Xn] == 2
            if mm.any():
                cums = mix_cum[X[mm], Xn[mm]]
                atom = (u_inc[mm, 0:1] >= cums).sum(axis=1)
                atom = atom.clip(0, mix_val.shape[2] - 1)
                inc[mm] = mix_val[X[mm], Xn[mm], atom]
        Y += inc
        if keep_panel:
            panel[:, k] = inc[:, 0]
        X = Xn
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
    rng = _rng_for(spec_id, seed)
    G = ct.generator
    S = ct.n_states
    rates = -np.diag(G)
    embed = np.array(G)
    np.fill_diagonal(embed, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        embed = np.where(rates[:, None] > 0, embed / rates[:, None], 0.0)
    cumE = np.cumsum(embed, axis=1)
    cumE[:, -1] = 1.0

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
            nxt = (u2[:, None] >= cumE[X[ja]]).sum(axis=1)
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
