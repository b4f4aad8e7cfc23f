"""Loading and saving of kernel, model and problem description files.

All documents are UTF-8 JSON. Reports are written atomically (temp file in
the target directory, then rename) with sorted keys and no timestamps, so an
identical invocation produces a byte-identical file.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile

import numpy as np

from .chain_core import StochasticKernel
from .errors import MaplabError
from .increments import deterministic, gaussian, mixture
from .map_model import CtMapSpec, MapSpec

PI_CHECK_TOL = 1e-8


class FormatError(MaplabError):
    """Raised for malformed or inconsistent input documents."""


def _require(doc, key, where):
    if key not in doc:
        raise FormatError(f"missing field {key!r} in {where}")
    return doc[key]


def kernel_from_dict(doc: dict) -> StochasticKernel:
    states = tuple(_require(doc, "states", "kernel"))
    P = np.asarray(_require(doc, "P", "kernel"), dtype=float)
    kernel = StochasticKernel(states=states, P=P)
    if "pi" in doc and doc["pi"] is not None:
        given = np.asarray(doc["pi"], dtype=float)
        if given.shape != kernel.pi.shape or np.max(np.abs(given - kernel.pi)) > PI_CHECK_TOL:
            raise FormatError("declared pi disagrees with the recomputed "
                              f"stationary distribution beyond {PI_CHECK_TOL:g}")
    return kernel


def kernel_to_dict(kernel: StochasticKernel) -> dict:
    return {"states": list(kernel.states), "P": kernel.P.tolist(),
            "pi": kernel.pi.tolist()}


def _field(doc: dict, key: str, shape, where="increment"):
    """Numeric field of doc as an array of the given shape, else FormatError."""
    value = _require(doc, key, where)
    try:
        return np.asarray(value, dtype=float).reshape(shape)
    except (TypeError, ValueError):
        raise FormatError(f"field {key!r} in {where} must be numbers of "
                          f"shape {shape}, got {value!r}") from None


def _law_from_dict(doc: dict, d: int):
    kind = _require(doc, "kind", "increment")
    if kind == "deterministic":
        return deterministic(_field(doc, "value", d))
    if kind == "gaussian":
        return gaussian(_field(doc, "mean", d), _field(doc, "cov", (d, d)))
    if kind == "mixture":
        atoms = [(float(_field(a, "p", (), "mixture atom")),
                  _field(a, "value", d, "mixture atom"))
                 for a in _require(doc, "atoms", "increment")]
        return mixture(atoms)
    raise FormatError(f"unknown increment kind {kind!r}")


def _law_to_dict(i, j, law) -> dict:
    base = {"from": int(i), "to": int(j), "kind": law.kind}
    if law.kind == "deterministic":
        base["value"] = law.value.tolist()
    elif law.kind == "gaussian":
        base["mean"] = law.mean_vec.tolist()
        base["cov"] = law.cov.tolist()
    elif law.kind == "mixture":
        base["atoms"] = [{"p": float(p), "value": v.tolist()}
                         for p, v in law.atoms]
    else:
        raise FormatError("characteristic-function laws are not serializable")
    return base


def map_spec_from_dict(doc: dict) -> MapSpec:
    kernel = kernel_from_dict(_require(doc, "kernel", "map spec"))
    d = int(doc.get("d", 1))
    incs = {}
    for entry in _require(doc, "increments", "map spec"):
        i, j = int(entry["from"]), int(entry["to"])
        incs[(i, j)] = _law_from_dict(entry, d)
    return MapSpec(kernel=kernel, increments=incs, d=d,
                   centered=bool(doc.get("centered", False)))


def map_spec_to_dict(spec: MapSpec) -> dict:
    return {
        "kernel": kernel_to_dict(spec.kernel),
        "d": spec.d,
        "increments": [_law_to_dict(i, j, law)
                       for (i, j), law in sorted(spec.increments.items())],
        "centered": spec.centered,
    }


def ct_spec_from_dict(doc: dict) -> CtMapSpec:
    G = np.asarray(_require(doc, "generator", "ct spec"), dtype=float)
    reward = np.asarray(_require(doc, "reward", "ct spec"), dtype=float)
    jumps = doc.get("jump_increments")
    if jumps is not None:
        jumps = np.asarray(jumps, dtype=float)
    return CtMapSpec(generator=G, reward=reward, jump_increments=jumps,
                     centered=bool(doc.get("centered", False)))


def ct_spec_to_dict(ct: CtMapSpec) -> dict:
    return {
        "generator": ct.generator.tolist(),
        "reward": ct.reward.tolist(),
        "jump_increments": None if ct.jump_increments is None
                           else ct.jump_increments.tolist(),
        "centered": ct.centered,
    }


def load_spec(path: str):
    """Load a MAP description file; dispatches on 'generator' vs 'kernel'."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "generator" in doc:
        return ct_spec_from_dict(doc)
    if "kernel" in doc:
        return map_spec_from_dict(doc)
    if "states" in doc and "P" in doc:
        return kernel_from_dict(doc)
    raise FormatError(f"{path}: not a kernel, MAP or continuous-time spec")


def _atomic_write_bytes(path: str, data: bytes):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report(path: str, report: dict):
    """Atomic, deterministic JSON report (sorted keys, fixed separators)."""
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2)
    _atomic_write_bytes(path, (text + "\n").encode("utf-8"))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_csv(path: str, header, rows):
    """Atomic CSV table for per-point records."""
    import io as _io
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(c) for c in row])
    _atomic_write_bytes(path, buf.getvalue().encode("utf-8"))


def _csv_cell(c):
    if isinstance(c, (float, np.floating)):
        return repr(float(c))
    return c


def write_samples(path: str, values: np.ndarray, sidecar: dict):
    """Raw little-endian float64 column plus a JSON metadata sidecar."""
    flat = np.ascontiguousarray(np.asarray(values, dtype="<f8").reshape(-1))
    _atomic_write_bytes(path, flat.tobytes())
    meta = dict(sidecar)
    meta["count"] = int(flat.size)
    meta["dtype"] = "<f8"
    write_report(path + ".json", meta)
