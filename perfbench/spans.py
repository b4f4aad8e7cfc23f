"""Span tracing of maplab's public functions, installed from outside src/.

Each traced name is patched in its defining module and in every maplab
module that imported it by name, and restored on exit. A span records
(name, start, end, parent span, job id); spans stay in memory in flat arrays
and are written once, at the end of the run. A few names are counted
without a span (scipy.linalg.expm, CtMapSpec.pi, the io byte sink), because
they are cheap and called very often.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

import reference


def _sim_tags(args, kwargs):
    spec = args[0]
    if getattr(spec, "ct_origin", None) is not None:
        return []               # delegated to simulate_ct, which has a span
    kinds = {law.kind for law in spec.increments.values()}
    law = ("mixture" if "mixture" in kinds else
           "gauss" if "gaussian" in kinds else "det")
    S = spec.n_states
    return [law] + ([f"S{S}"] if S in (2, 8, 32) else [])


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _discrete_work(args, kwargs):
    n, paths = _arg(args, kwargs, 1, "n"), _arg(args, kwargs, 2, "n_paths")
    return int(n) * int(paths), _sim_tags(args, kwargs)


def _ct_work(args, kwargs):
    # jumps are computed, not observed: t * sum_x pi_x q_x per path
    ct, t, paths = args[0], _arg(args, kwargs, 1, "t"), _arg(args, kwargs, 2,
                                                             "n_paths")
    G = np.asarray(ct.generator)
    rate = float(reference.ct_stationary(G) @ -np.diag(G))
    return float(t) * rate * int(paths), []


# (module, attribute, work function or None); work returns (units, tags)
SPANS = [
    ("montecarlo", "simulate_discrete", _discrete_work),
    ("montecarlo", "simulate_ct", _ct_work),
    ("montecarlo", "spec_content_hash", None),
    ("mestim", "simulate_edge_counts",
     lambda a, k: (int(_arg(a, k, 1, "n")) * int(_arg(a, k, 2, "reps")), [])),
    ("mestim", "build_problem", None),
    ("mestim", "estimator_be_check", None),
    ("map_model", "exact_moments",
     lambda a, k: (int(_arg(a, k, 1, "n")), [])),
    ("map_model", "third_cumulant_rate", None),
    ("map_model", "variance_series", None),
    ("map_model", "ct_sample_skeleton", None),
    ("increments", "IncrementLaw.cf", None),
    ("increments", "IncrementLaw.moment", None),
    ("fourier", "lambda_branch", lambda a, k: (len(a[1]), [])),
    ("fourier", "derivatives_at_zero", None),
    ("fourier", "nonlattice_scan", lambda a, k: (len(a[1]), [])),
    ("chain_core", "solve_stationary", None),
    ("chain_core", "l2_operator_norm", None),
    ("chain_core", "spectral_gap_report", None),
    ("limit_checks", "kolmogorov_distance", lambda a, k: (len(a[0]), [])),
    ("limit_checks", "clt_check", None),
    ("limit_checks", "berry_esseen_check", None),
    ("limit_checks", "edgeworth_check", None),
    ("limit_checks", "llt_check", None),
    ("limit_checks", "rho_mixing_check", None),
    ("limit_checks", "ct_limit_check", None),
    ("fixtures", "get_fixture", None),
    ("fixtures", "mean_contrast_problem", None),
    ("io", "load_spec", None),
    ("io", "write_report", None),
    ("cli", "dispatch", None),
]
LIMIT_CHECKS = ("clt_check", "berry_esseen_check", "edgeworth_check",
                "llt_check", "rho_mixing_check", "ct_limit_check")


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names = [f"{m}.{a}" for m, a, _ in SPANS]
        self.nid = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = {}                  # span index -> (units, tags)
        self.counts = defaultdict(int)  # count-only names
        self.stack = []
        self.job_id = -1
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _span(self, nid, fn, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.nid)
            tracer.nid.append(nid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            if work is not None:
                tracer.work[idx] = work(args, kwargs)
            tracer.stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
        return wrapper

    def _counter(self, name, fn, units=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1 if units is None else units(args)
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace(self, original, replacement):
        """Rebind original to replacement in every maplab module namespace."""
        for mname, mod in list(sys.modules.items()):
            if mname != "maplab" and not mname.startswith("maplab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        import importlib

        import scipy.linalg

        for nid, (mname, attr, work) in enumerate(SPANS):
            mod = importlib.import_module("maplab." + mname)
            if "." in attr:             # a method on a class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._span(nid, original, work))
            else:
                original = getattr(mod, attr)
                self._replace(original, self._span(nid, original, work))
        from maplab import io, map_model
        pi = map_model.CtMapSpec.__dict__["pi"]
        self._patches.append((map_model.CtMapSpec, "pi", pi))
        map_model.CtMapSpec.pi = property(
            self._counter("map_model.CtMapSpec.pi.calls", pi.fget))
        expm = scipy.linalg.expm
        self._patches.append((scipy.linalg, "expm", expm))
        scipy.linalg.expm = self._counter("scipy.linalg.expm.calls", expm)
        sink = io._atomic_write_bytes
        self._replace(sink, self._counter("io.bytes_written", sink,
                                          lambda a: len(a[1])))

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reduction ---------------------------------------------------------

    def mark(self):
        """Position to pass to layer_metrics for spans recorded after it."""
        return len(self.nid), dict(self.counts)

    def self_times(self, lo=0):
        """(durations, self times) of spans lo.. as numpy arrays."""
        dur = np.array(self.end[lo:]) - np.array(self.start[lo:])
        parent = np.array(self.parent[lo:]) - lo
        child = np.zeros(len(dur))
        has = parent >= 0       # spans opened before lo have no parent here
        np.add.at(child, parent[has], dur[has])
        return dur, dur - child

    def job_self_sums(self, lo=0):
        """Per job id: sum of span self times (equals the top span's time)."""
        _, self_t = self.self_times(lo)
        jobs = np.array(self.job[lo:])
        out = defaultdict(float)
        for j, s in zip(jobs.tolist(), self_t.tolist()):
            out[j] += s
        return dict(out)

    def layer_metrics(self, mark):
        """Per-layer metrics over the spans and counts recorded since mark."""
        lo, counts0 = mark
        dur, self_t = self.self_times(lo)
        nids = np.array(self.nid[lo:])
        calls = np.bincount(nids, minlength=len(self.names))
        total = np.bincount(nids, weights=dur, minlength=len(self.names))
        own = np.bincount(nids, weights=self_t, minlength=len(self.names))
        units, tagged = defaultdict(float), defaultdict(lambda: [0.0, 0.0])
        for idx, (n_units, tags) in self.work.items():
            if idx < lo:
                continue
            name = self.names[self.nid[idx]]
            units[name] += n_units
            for tag in tags:
                cell = tagged[f"{name}.{tag}"]
                cell[0] += self_t[idx - lo]
                cell[1] += n_units
        ix = {name: i for i, name in enumerate(self.names)}
        m = {}

        def put(name, value, unit):
            m[name] = (int(value) if unit == "count" else float(value), unit)

        def per(name, scale, unit, label):
            # time per unit of work; absent when the layer did no work here
            if units[name] > 0:
                put(f"{name}.{label}", own[ix[name]] / units[name] * scale,
                    unit)

        for name in self.names:
            put(f"{name}.calls", int(calls[ix[name]]), "count")
            put(f"{name}.self_s", float(own[ix[name]]), "s")
        for name in ("map_model.third_cumulant_rate",
                     "fourier.derivatives_at_zero"):
            put(f"{name}.total_s", float(total[ix[name]]), "s")
        put("map_model.exact_moments.recursion_steps",
            int(units["map_model.exact_moments"]), "count")
        per("montecarlo.simulate_discrete", 1e9, "ns", "ns_per_path_step")
        for tag in ("det", "gauss", "mixture", "S2", "S8", "S32"):
            self_s, n_units = tagged[f"montecarlo.simulate_discrete.{tag}"]
            if n_units > 0:
                put(f"montecarlo.simulate_discrete.ns_per_path_step.{tag}",
                    self_s / n_units * 1e9, "ns")
        per("montecarlo.simulate_ct", 1e9, "ns", "ns_per_jump")
        if units["montecarlo.simulate_ct"] > 0:
            put("montecarlo.simulate_ct.jumps_computed",
                int(round(units["montecarlo.simulate_ct"])), "count")
        per("mestim.simulate_edge_counts", 1e9, "ns", "ns_per_path_step")
        per("fourier.lambda_branch", 1e6, "us", "us_per_grid_point")
        per("fourier.nonlattice_scan", 1e6, "us", "us_per_point")
        per("limit_checks.kolmogorov_distance", 1e9, "ns", "ns_per_sample")
        put("limit_checks.self_s",
            float(sum(own[ix[f"limit_checks.{c}"]] for c in LIMIT_CHECKS)),
            "s")
        for name in ("map_model.CtMapSpec.pi.calls", "scipy.linalg.expm.calls",
                     "io.bytes_written"):
            put(name, int(self.counts[name] - counts0.get(name, 0)), "count")
        return m

    def save(self, path):
        """Write every span as compressed columns plus the name table."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.array(self.nid), parent=np.array(self.parent),
            job=np.array(self.job), start=np.array(self.start),
            end=np.array(self.end))


def median_metrics(passes):
    """Median of each metric over per-pass dictionaries of (value, unit)."""
    out = {}
    for name in passes[0]:
        values = [p[name][0] for p in passes if name in p]
        unit = passes[0][name][1]
        out[name] = (values[0] if unit == "count" else
                     statistics.median(values), unit)
    return out
