"""Loading and saving of kernel, model and problem description files.

All documents are UTF-8 JSON. A discrete spec's increment entries are read
in one pass straight into the columns of its flat atom table (see MapSpec),
which is checked on whole arrays; no per-law object is built. Reports are
written atomically (temp file in the target directory, then rename) with
sorted keys and no timestamps, so an identical invocation produces a
byte-identical file.
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
from .increments import GAUSSIAN, KINDS
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
        except (AttributeError, KeyError, IndexError, OverflowError,
                TypeError, ValueError) as exc:  # a wrong type, key, size...
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


def _field(value, key: str, shape):
    """value as an array of the given shape, else FormatError."""
    try:
        return np.asarray(value, dtype=float).reshape(shape)
    except (TypeError, ValueError):
        raise FormatError(f"increment field {key!r} must be numbers of shape "
                          f"{shape}, got {value!r}") from None


def _column(values: list, keys: list, shape) -> np.ndarray:
    """values as one array of shape (len(values),) + shape. Each value may
    be nested in any way that reshapes to shape, as _field reads it; one
    that does not is a FormatError naming its key."""
    try:
        col = np.array(values, dtype=float)
        if col.shape == (len(values),) + shape:
            return col
    except (TypeError, ValueError):
        pass
    return np.array([_field(v, k, shape) for v, k in zip(values, keys)]
                    ).reshape((len(values),) + shape)


def _centered(doc: dict) -> bool:
    flag = doc.get("centered", False)
    if not isinstance(flag, bool):
        raise FormatError(f"centered must be true or false, got {flag!r}")
    return flag


def _law_to_dict(i, j, law) -> dict:
    base = {"from": int(i), "to": int(j), "kind": law.kind}
    if law.kind == "deterministic":
        base["value"] = law.mean[0].tolist()
    elif law.kind == "gaussian":
        base["mean"] = law.mean[0].tolist()
        base["cov"] = law.cov[0].tolist()
    else:
        base["atoms"] = [{"p": p, "value": v}
                         for p, v in zip(law.prob.tolist(), law.mean.tolist())]
    return base


@_document
def map_spec_from_dict(doc: dict) -> MapSpec:
    """MapSpec of a document. One pass over the increment entries collects
    their fields, in file order, into the columns of the spec's atom table;
    MapSpec checks them on whole arrays."""
    kernel = kernel_from_dict(_require(doc, "kernel", "map spec"))
    d = doc.get("d", 1)
    if not (isinstance(d, int) and d >= 1):
        raise FormatError(f"d must be a positive integer, got {d!r}")
    edges, kind, start, prob, mean, cov = [], [], [], [], [], []
    try:
        for entry in _require(doc, "increments", "map spec"):
            edges.append((entry["from"], entry["to"]))
            name = entry["kind"]
            if name not in KINDS:
                raise FormatError(f"unknown increment kind {name!r}")
            kind.append(KINDS.index(name))
            start.append(len(prob))
            if name == "mixture":
                for atom in entry["atoms"]:
                    prob.append(atom["p"])
                    mean.append(atom["value"])
            else:
                prob.append(1.0)
                mean.append(entry["mean" if name == "gaussian" else "value"])
                if name == "gaussian":
                    cov.append(entry["cov"])
    except KeyError as exc:
        raise FormatError(f"missing field {exc} in an increment entry"
                          ) from None
    pairs = np.array(edges if edges else np.zeros((0, 2), dtype=int))
    if pairs.ndim != 2 or pairs.dtype.kind not in "iu":
        raise FormatError("increment 'from' and 'to' must be state indices")
    gauss = np.repeat(np.equal(kind, GAUSSIAN), np.diff(start + [len(prob)]))
    table = {"rows": pairs[:, 0], "cols": pairs[:, 1], "kind": kind,
             "start": start, "prob": _column(prob, ["p"] * len(prob), ()),
             "mean": _column(mean, np.where(gauss, "mean", "value").tolist(),
                             (d,)),
             "cov": np.zeros((len(prob), d, d))}
    table["cov"][gauss] = _column(cov, ["cov"] * len(cov), (d, d))
    spec = MapSpec(kernel=kernel, d=d, centered=_centered(doc), table=table)
    off = np.flatnonzero(spec.edge_table["weight"] <= 0)
    if len(off):
        raise FormatError(f"increment for {tuple(pairs[off[0]].tolist())}, "
                          "not an edge of the kernel")
    return spec


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
                     centered=_centered(doc))


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
