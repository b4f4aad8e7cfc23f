"""Loading and saving of kernel, model and problem description files.

All documents are UTF-8 JSON. Reports are written atomically (temp file in
the target directory, then rename) with sorted keys and no timestamps, so an
identical invocation produces a byte-identical file.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import tempfile

import numpy as np

from .chain_core import StochasticKernel
from .errors import MaplabError
from .increments import deterministic, gaussian, mixture
from .map_model import CtMapSpec, MapSpec
from .mestim import build_problem, mean_contrast_family

PI_CHECK_TOL = 1e-8


class FormatError(MaplabError):
    """Raised for malformed or inconsistent input documents."""


def _document(load):
    """load(source), with every malformed-content error a FormatError."""
    @functools.wraps(load)
    def checked(source):
        try:
            return load(source)
        except (AttributeError, KeyError, IndexError, TypeError,
                ValueError) as exc:     # a wrong type, key, shape or value
            raise FormatError(f"malformed document: {exc}") from None
    return checked


def _require(doc, key, where):
    if key not in doc:
        raise FormatError(f"missing field {key!r} in {where}")
    return doc[key]


@_document
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
    else:
        base["atoms"] = [{"p": float(p), "value": v.tolist()}
                         for p, v in law.atoms]
    return base


@_document
def map_spec_from_dict(doc: dict) -> MapSpec:
    kernel = kernel_from_dict(_require(doc, "kernel", "map spec"))
    d, S = doc.get("d", 1), kernel.n_states
    if not (isinstance(d, int) and d >= 1):
        raise FormatError(f"d must be a positive integer, got {d!r}")
    incs = {}
    for entry in _require(doc, "increments", "map spec"):
        i, j = (_require(entry, k, "increment") for k in ("from", "to"))
        if not (i in range(S) and j in range(S) and kernel.P[i, j] > 0):
            raise FormatError(f"increment for ({i}, {j}), not an edge of "
                              "the kernel")
        if (i, j) in incs:
            raise FormatError(f"two increment entries for ({i}, {j})")
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


@_document
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


@_document
def _problem_fields(path: str):
    """(document, xi, kernels) of a mean_contrast problem file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("family") != "mean_contrast":
        raise FormatError("only the mean_contrast family is file-loadable")
    kernels = {float(t): kernel_from_dict(k)
               for t, k in _require(doc, "kernels", "problem").items()}
    xi = np.asarray(_require(doc, "xi", "problem"), dtype=float)
    sizes = {k.n_states for k in kernels.values()}
    if (not all(map(math.isfinite, kernels)) or len(sizes) != 1
            or xi.shape != (sizes.pop(),) * 2):
        raise FormatError("a problem needs finite theta keys, kernels with "
                          "one state count S and an S x S xi")
    return doc, xi, kernels


def load_problem(path: str):
    """(problem, document) from a mean_contrast problem file."""
    doc, xi, kernels = _problem_fields(path)
    return build_problem(mean_contrast_family(xi), kernels), doc


@_document
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
