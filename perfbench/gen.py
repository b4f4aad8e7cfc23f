"""Seeded input generator: model and problem files plus per-workload jobs.

Every input is a pure function of (workload, seed). Each job carries the
outcome it should have, derived from properties of its input (lattice or
not, spectral gap present, exact cumulant rates from reference.py), never
from an earlier run. The job structure (commands, state counts, law kinds,
horizons, path counts) is the same for every seed; the seed changes the
numbers in the models and the Monte Carlo seeds, so the work in a run does
not depend on the seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import reference as ref

WHY = {
    "verify_mc": (
        "Simulation is where the time goes: README verify commands, "
        "mixing-bound and simulate on fixtures and generated specs (S 2/8/32, "
        "det/gauss/mixture laws, CT S 2/8), so montecarlo dominates."),
    "mestimate": (
        "The same chain stepping done a second way (edge counts, no "
        "montecarlo) plus the exact-moment recursion inside build_problem."),
    "spectral": (
        "No simulation: analyze, scan-lambda, nonlattice-scan, kernel "
        "mixing bounds and README library calls; a simulation change must "
        "read as no change here."),
}

WORKLOADS = tuple(WHY)

# lattice span of each fixture's centered increments; None when nonlattice
FIXTURE_SPAN = {"two_state": 1.0, "iid_rademacher": 2.0, "lattice_pm1": 2.0,
                "skewed_mixture": None, "gaussian_iid": None,
                "birth_death_5": 0.25, "ct_two_state": None}
MIN_SIGMA2 = 0.5        # keeps lattice jumps small against sigma sqrt(n)
# analyze and scan-lambda follow the branch over |zeta| <= 0.5; generated
# specs keep it well separated there, so no BranchCollision is expected
BRANCH_GRID = np.linspace(-0.5, 0.5, 81)
MIN_SEPARATION = 0.05


@dataclass(frozen=True)
class Model:
    ref: str            # "@fixture" or a spec file path
    rates: dict         # exact pi, mean_rate, sigma2, mu3
    ct: bool = False
    span: float = None  # lattice span of the increments, None if nonlattice


# -- model generation -------------------------------------------------------

def _dense_kernel(rng, S):
    P = rng.dirichlet(np.ones(S), size=S) + 0.02
    return P / P.sum(axis=1, keepdims=True)


def _sparse_kernel(rng, S, width=4):
    """Ring plus self-loop plus random chords: irreducible and aperiodic."""
    P = np.zeros((S, S))
    for i in range(S):
        cols = {i, (i + 1) % S}
        while len(cols) < width:
            cols.add(int(rng.integers(S)))
        cols = sorted(cols)
        P[i, cols] = rng.dirichlet(np.ones(len(cols))) + 0.02
    return P / P.sum(axis=1, keepdims=True)


def _kernel(rng, S):
    return _dense_kernel(rng, S) if S <= 8 else _sparse_kernel(rng, S)


def _law(rng, kind):
    """One edge law as (json dict, raw moments E[Z^k] for k = 1..3)."""
    if kind == "det":
        v = float(rng.integers(-2, 3))      # integer values: a lattice spec
        return {"kind": "deterministic", "value": [v]}, [v, v ** 2, v ** 3]
    if kind == "gauss":
        m, s2 = float(rng.normal()), float(rng.uniform(0.25, 2.0))
        return ({"kind": "gaussian", "mean": [m], "cov": [[s2]]},
                [m, m * m + s2, m ** 3 + 3 * m * s2])
    # three atoms at generic reals: nonlattice
    p = rng.dirichlet(np.ones(3)) + 0.05
    p = p / p.sum()
    v = rng.normal(0.0, 1.5, size=3)
    atoms = [{"p": float(pk), "value": [float(vk)]} for pk, vk in zip(p, v)]
    return ({"kind": "mixture", "atoms": atoms},
            [float(sum(pk * vk ** k for pk, vk in zip(p, v)))
             for k in (1, 2, 3)])


def discrete_spec(rng, S, kind, separated=False):
    """Centered discrete MAP document plus the exact rates of its law.

    separated: also keep the eigenvalue branch apart from the rest of the
    spectrum over BRANCH_GRID (for jobs that follow the branch).
    """
    while True:
        P = _kernel(rng, S)
        incs, raw = [], {k: np.zeros((S, S)) for k in (1, 2, 3)}
        for i, j in zip(*np.nonzero(P)):
            doc, mom = _law(rng, kind)
            incs.append({"from": int(i), "to": int(j), **doc})
            for k in (1, 2, 3):
                raw[k][i, j] = mom[k - 1]
        rates = _centered_rates(P, raw)
        apart = not separated or ref.branch_separation(
            P, incs, BRANCH_GRID) >= MIN_SEPARATION
        if rates["sigma2"] >= MIN_SIGMA2 and apart:
            break
    doc = {"kernel": {"states": list(range(S)), "P": P.tolist()}, "d": 1,
           "increments": incs, "centered": True}
    return doc, rates


def skewed_spec(rng, S):
    """Centered Gaussian-edge spec with rare large jumps into state 0.

    Resampled until the exact skewness mu3 / sigma^3 is at least 1, so the
    Edgeworth correction stands far above Monte Carlo noise at n = 16.
    """
    while True:
        P = _dense_kernel(rng, S)
        col = rng.uniform(0.05, 0.15, size=S)
        P = np.column_stack([col, P[:, 1:] / P[:, 1:].sum(axis=1,
                                                          keepdims=True)
                             * (1.0 - col)[:, None]])
        incs, raw = [], {k: np.zeros((S, S)) for k in (1, 2, 3)}
        for i, j in zip(*np.nonzero(P)):
            m = (3.0 if j == 0 else 0.0) + float(rng.normal(0.0, 0.2))
            s2 = float(rng.uniform(0.3, 0.6))
            incs.append({"from": int(i), "to": int(j), "kind": "gaussian",
                         "mean": [m], "cov": [[s2]]})
            for k, v in zip((1, 2, 3), (m, m * m + s2, m ** 3 + 3 * m * s2)):
                raw[k][i, j] = v
        rates = _centered_rates(P, raw)
        if rates["mu3"] >= rates["sigma2"] ** 1.5:
            break
    doc = {"kernel": {"states": list(range(S)), "P": P.tolist()}, "d": 1,
           "increments": incs, "centered": True}
    return doc, rates


def _centered_rates(P, raw):
    """Exact rates after every edge law is shifted by the stationary mean."""
    m = ref.discrete_rates(P, raw)["mean_rate"]
    r1, r2, r3 = raw[1], raw[2], raw[3]
    return ref.discrete_rates(P, {
        1: r1 - m, 2: r2 - 2 * m * r1 + m * m,
        3: r3 - 3 * m * r2 + 3 * m * m * r1 - m ** 3})


def ct_spec(rng, S):
    """Centered CT spec, rates scaled to one expected jump per unit time."""
    if S == 2:
        a, b = rng.uniform(0.5, 2.0, size=2)
        G = np.array([[-a, a], [b, -b]])
    else:
        G = rng.uniform(0.1, 1.0, size=(S, S))
        np.fill_diagonal(G, 0.0)
        np.fill_diagonal(G, -G.sum(axis=1))
    G = G / float(ref.ct_stationary(G) @ -np.diag(G))
    reward = rng.normal(size=S)
    pi = ref.ct_stationary(G)
    doc = {"generator": G.tolist(), "reward": reward.tolist(),
           "jump_increments": None, "centered": True}
    return doc, ref.ct_rates(G, reward - pi @ reward)


def fixture_rates(name):
    """Exact rates of the built-in fixtures, rebuilt from their definitions."""
    def iid(values, probs):
        z = np.tile(values, (len(values), 1))
        return ref.discrete_rates(np.tile(probs, (len(probs), 1)),
                                  {k: z ** k for k in (1, 2, 3)})

    if name == "ct_two_state":
        G = np.array([[-1.0, 1.0], [2.0, -2.0]])
        return ref.ct_rates(G, np.array([0.0, 1.0]) - 1.0 / 3.0)
    if name == "two_state":
        P = np.array([[0.7, 0.3], [0.2, 0.8]])
        z = np.array([[0.0, 1.0], [0.0, 1.0]]) - 0.6
        return ref.discrete_rates(P, {k: z ** k for k in (1, 2, 3)})
    if name in ("iid_rademacher", "lattice_pm1"):
        return iid(np.array([1.0, -1.0]), np.array([0.5, 0.5]))
    if name == "skewed_mixture":
        # edge into state 0 is N(-1, 1), into state 1 the point mass +1
        moments = {1: np.array([[-1.0, 1.0]] * 2),
                   2: np.array([[2.0, 1.0]] * 2),
                   3: np.array([[-4.0, 1.0]] * 2)}
        return ref.discrete_rates(np.full((2, 2), 0.5), moments)
    if name == "gaussian_iid":
        return ref.discrete_rates(np.ones((1, 1)), {1: np.zeros((1, 1)),
                                                     2: np.ones((1, 1)),
                                                     3: np.zeros((1, 1))})
    if name == "birth_death_5":
        S = 5
        P = np.zeros((S, S))
        for x in range(S):
            if x + 1 < S:
                P[x, x + 1] = 0.3
            if x > 0:
                P[x, x - 1] = 0.2
            P[x, x] = 1.0 - P[x].sum()
        value = np.arange(S) / (S - 1.0)
        z = np.tile(value - ref.stationary(P) @ value, (S, 1))
        return ref.discrete_rates(P, {k: z ** k for k in (1, 2, 3)})
    raise KeyError(name)


def problem_doc(rng, S, n_theta):
    """mean_contrast problem over P_t = (1 - c t) I + c t R (pi is R's)."""
    R = _dense_kernel(rng, S)
    pi = ref.stationary(R)
    xi = rng.uniform(0.0, 1.0, size=(S, S))
    thetas = [round(0.6 + 0.2 * k, 1) for k in range(n_theta)]
    c = 0.6 / max(thetas)
    kernels, alpha0, tau2 = {}, {}, {}
    for t in thetas:
        P = (1.0 - c * t) * np.eye(S) + c * t * R
        kernels[str(t)] = {"states": list(range(S)), "P": P.tolist()}
        a0 = float(pi @ (P * xi).sum(axis=1))
        alpha0[str(t)] = a0
        # F1 = -2 (xi - a0) and m = 2, so tau^2 = (sigma_1 / m)^2 is the
        # variance rate of the additive functional xi
        z = xi - a0
        tau2[str(t)] = ref.discrete_rates(P, {1: z, 2: z * z,
                                              3: z ** 3})["sigma2"]
    doc = {"family": "mean_contrast", "xi": xi.tolist(), "kernels": kernels}
    return doc, alpha0, tau2


# -- job lists ---------------------------------------------------------------

class _Builder:
    """Collects input files and jobs for one workload under one directory."""

    def __init__(self, root, seed):
        self.inputs = os.path.join(root, "inputs")
        self.outputs = os.path.join(root, "outputs")
        os.makedirs(self.inputs, exist_ok=True)
        os.makedirs(self.outputs, exist_ok=True)
        self.seed = seed
        self.jobs = []

    def write(self, name, doc):
        path = os.path.join(self.inputs, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def mc_seed(self):
        return str(self.seed * 1000 + len(self.jobs) + 1)

    def cli(self, cmd, model, args, expect, sim=0, ext=".json", probe=None):
        """A CLI job; sim is the number of chains it simulates per path."""
        jid = f"{len(self.jobs):03d}-{cmd}"
        out = os.path.join(self.outputs, jid + ext)
        src = ([] if model is None else ["--fixture", model[1:]]
               if model.startswith("@") else ["--spec", model])
        self.jobs.append({"id": jid, "kind": "cli", "cmd": cmd,
                          "argv": [cmd] + src + args + ["--out", out],
                          "out": out, "expect": expect, "sim": sim,
                          "probe": probe})

    def lib(self, call, model, expect):
        jid = f"{len(self.jobs):03d}-{call}"
        self.jobs.append({"id": jid, "kind": "lib", "cmd": call,
                          "argv": [call, model.ref], "model": model.ref,
                          "ct": model.ct, "out": None, "expect": expect,
                          "sim": 0, "probe": None})


def _ints(text):
    return [int(x) for x in text.split(",")]


def path_steps(job) -> int:
    """Path-steps a job simulates: paths x summed horizons x chains.

    A CT horizon t counts as t steps; edge counts count like terminal Y.
    """
    if not job["sim"] or job["expect"].get("exit") == 2:
        return 0
    argv = job["argv"]

    def arg(flag):
        return argv[argv.index(flag) + 1] if flag in argv else None

    paths = int(arg("--paths") or arg("--reps"))
    if job["cmd"] == "mixing-bound":
        horizon = max(_ints(arg("--lags"))) + 1
    elif job["cmd"] == "simulate":
        horizon = float(arg("--n") or arg("--t"))
    else:
        horizon = sum(float(x) for x in
                      (arg("--n-list") or arg("--t-list")).split(","))
    return int(job["sim"] * paths * horizon)


def _generated(b, rng, kinds, ct_sizes, separated=False):
    models = {}
    for S, kind in kinds:
        doc, rates = discrete_spec(rng, S, kind, separated)
        models[f"d{S}_{kind}"] = Model(b.write(f"d{S}_{kind}", doc), rates,
                                       span=1.0 if kind == "det" else None)
    for S in ct_sizes:
        doc, rates = ct_spec(rng, S)
        models[f"c{S}"] = Model(b.write(f"c{S}", doc), rates, ct=True)
    for name, span in FIXTURE_SPAN.items():
        if name != "lattice_pm1":
            models[name] = Model("@" + name, fixture_rates(name),
                                 ct=name.startswith("ct_"), span=span)
    return models


def _verify_mc(b, rng):
    models = _generated(b, rng, [(S, k) for S in (2, 8, 32)
                                 for k in ("det", "gauss", "mix")], (2, 8))
    doc, rates = skewed_spec(rng, 8)
    models["d8_skew"] = Model(b.write("d8_skew", doc), rates)

    def verify(cmd, name, horizons, paths):
        model = models[name]
        needs_nonlattice = cmd in ("verify-edgeworth", "verify-llt")
        if needs_nonlattice and model.span is not None:
            expect = {"exit": 2, "verdict": None}    # LatticeSpec
        else:
            expect = {"exit": 0, "verdict": "pass",
                      "sigma2": model.rates["sigma2"]}
        flag = "--t-list" if cmd == "verify-ct" else "--n-list"
        b.cli(cmd, model.ref, [flag, horizons, "--paths", str(paths),
                               "--seed", b.mc_seed()], expect, sim=1)

    def simulate(name, horizon, paths):
        model = models[name]
        rates = model.rates
        b.cli("simulate", model.ref,
              ["--t" if model.ct else "--n", str(horizon), "--paths",
               str(paths), "--seed", b.mc_seed()],
              {"exit": 0, "verdict": None,
               "samples": {"mean_rate": rates["mean_rate"],
                           "sigma2": rates["sigma2"]}},
              sim=1, ext=".bin")

    def mixing(name, lags, paths):
        b.cli("mixing-bound", models[name].ref,
              ["--lags", lags, "--paths", str(paths), "--seed", b.mc_seed()],
              {"exit": 0, "verdict": "pass"}, sim=1)

    # README commands on the shipped fixtures, at benchmark sizes. The
    # Edgeworth gain stands clear of Monte Carlo noise only at small n, and
    # the LLT ratio needs a few hundred paths inside its bump, hence n = 64
    verify("verify-clt", "two_state", "256,1024", 2000)
    verify("verify-be", "iid_rademacher", "64,256,1024", 2000)
    verify("verify-edgeworth", "skewed_mixture", "16", 60000)
    verify("verify-llt", "gaussian_iid", "64", 10000)
    verify("verify-ct", "ct_two_state", "64,256", 2000)
    mixing("two_state", "1,2,3,4", 20000)
    simulate("two_state", 1024, 2000)
    # generated specs: every state count and law kind
    sim_sizes = [(64, 10000), (256, 3000), (1024, 1000)]
    for k, S in enumerate((2, 8, 32)):
        for m, kind in enumerate(("det", "gauss", "mix")):
            name = f"d{S}_{kind}"
            verify("verify-clt", name, "64,256", 2000 if S < 32 else 1000)
            verify("verify-be", name, "64,256,1024", 700)
            simulate(name, *sim_sizes[(k + m) % 3])
    verify("verify-edgeworth", "d8_skew", "16", 40000)
    verify("verify-edgeworth", "d2_det", "16", 40000)
    verify("verify-llt", "d2_gauss", "64", 10000)
    verify("verify-llt", "d8_det", "64", 10000)
    mixing("d8_det", "1,2,3", 10000)
    mixing("d32_gauss", "1,2,3", 10000)
    for S in (2, 8):
        verify("verify-ct", f"c{S}", "64,256", 2000)
        simulate(f"c{S}", 256, 2000)


def _mestimate(b, rng):
    thetas = (0.6, 0.8, 1.0, 1.2, 1.4)
    b.cli("mestimate", "@mean_contrast_problem",
          ["--n-list", "64,256", "--reps", "2000", "--seed", b.mc_seed()],
          {"exit": 0, "verdict": "pass",
           "alpha0": {str(t): 0.6 for t in thetas}}, sim=len(thetas))
    # sized so that simulate_edge_counts takes over half of the pass and
    # build_problem (the exact-moment recursion) most of the rest
    for S, n_theta, n_list, reps in [(2, 1, "256,1024", 8000),
                                     (4, 1, "512,1024", 6000),
                                     (8, 1, "128,512", 6000),
                                     (2, 2, "64,256,1024", 4000),
                                     (4, 1, "256,1024", 6000),
                                     (8, 3, "64,256", 4000)]:
        doc, alpha0, tau2 = problem_doc(rng, S, n_theta)
        path = b.write(f"problem{len(b.jobs)}_S{S}_t{n_theta}", doc)
        b.cli("mestimate", None, ["--problem", path, "--n-list", n_list,
                                  "--reps", str(reps), "--seed", b.mc_seed()],
              {"exit": 0, "verdict": "pass", "alpha0": alpha0, "tau2": tau2},
              sim=n_theta)


def _spectral(b, rng):
    models = _generated(b, rng, [(2, "det"), (2, "gauss"), (2, "mix"),
                                 (8, "det"), (8, "gauss"), (8, "mix"),
                                 (32, "gauss")], (2, 8), separated=True)
    for name, model in models.items():
        rates = model.rates
        b.cli("analyze", model.ref, [],
              {"exit": 0, "verdict": "pass", "sigma2": rates["sigma2"],
               "mu3": rates["mu3"], "mean_rate": rates["mean_rate"]})
    for name, model in models.items():
        if model.ct:
            continue
        if model.span is None:
            b.cli("nonlattice-scan", model.ref, [],
                  {"exit": 0, "verdict": "pass"})
        else:
            # |lambda(2 pi / span)| = 1 and the grid ends exactly there
            b.cli("nonlattice-scan", model.ref,
                  ["--k-max", repr(2 * math.pi / model.span)],
                  {"exit": 1, "verdict": "fail"})
    b.cli("nonlattice-scan", "@lattice_pm1", ["--k-max", repr(math.pi)],
          {"exit": 1, "verdict": "fail"})
    for name in ("two_state", "d8_gauss", "c2"):
        b.cli("scan-lambda", models[name].ref, ["--grid-points", "81"],
              {"exit": 0, "verdict": None, "rows": 81}, ext=".csv")
    kernels = [(f"k{S}_{r}", _kernel(rng, S)) for S in (2, 8, 32)
               for r in range(2)]
    kernels.append(("k2_periodic", np.array([[0.0, 1.0], [1.0, 0.0]])))
    for name, P in kernels:
        path = b.write(name, {"states": list(range(len(P))), "P": P.tolist()})
        bounds = ref.mixing_bounds(P, 10)
        gap = any(x < 1.0 - 1e-12 for x in bounds)
        b.cli("mixing-bound", path, ["--lags", "1,2,3,4,5,6,7,8,9,10",
                                     "--seed", "1"],
              {"exit": 0 if gap else 1, "verdict": "pass" if gap else "fail",
               "bounds": bounds})
    for name, model in models.items():
        exact = {key: model.rates[key] for key in ("sigma2", "mu3",
                                                   "mean_rate")}
        exact["pi"] = model.rates["pi"].tolist()
        if not model.ct:
            b.lib("variance_series", model, exact)
        b.lib("derivatives_at_zero", model, exact)
    for name in ("two_state", "skewed_mixture", "d2_gauss", "d8_mix"):
        b.lib("third_cumulant_rate", models[name],
              {"mu3": models[name].rates["mu3"]})


def _probes(b):
    """ROADMAP known-defect inputs, each with the outcome it should have."""
    edges = [(i, j) for i in range(2) for j in range(2)]
    nan_spec = {"kernel": {"states": [0, 1],
                           "P": [[0.5, float("nan")], [0.5, 0.5]]},
                "increments": [{"from": i, "to": j, "kind": "deterministic",
                                "value": [float(j)]} for i, j in edges]}
    reducible = {"generator": [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0],
                               [0.0, 0.0, 0.0]],
                 "reward": [0.0, 1.0, 2.0], "centered": True}
    bad_shape = {"kernel": {"states": [0, 1], "P": [[0.5, 0.5], [0.5, 0.5]]},
                 "increments": [{"from": i, "to": j, "kind": "deterministic",
                                 "value": [1.0, 2.0]} for i, j in edges]}
    jumps = {"generator": [[-1.0, 1.0], [2.0, -2.0]], "reward": [0.0, 1.0],
             "jump_increments": [[0.0, 1.0], [-0.5, 0.0]], "centered": True}
    small, _, _ = problem_doc(np.random.default_rng(0), 2, 1)
    usage = {"exit": 2, "verdict": None}
    b.cli("analyze", b.write("probe_nan_P", nan_spec), [], usage,
          probe="NaN in P passes kernel validation")
    b.cli("analyze", b.write("probe_reducible_ct", reducible), [], usage,
          probe="reducible generator raises LinAlgError")
    b.cli("analyze", b.write("probe_bad_shape", bad_shape), [], usage,
          probe="wrong-shape increment value raises ValueError")
    b.cli("verify-clt", "@two_state",
          ["--n-list", "64", "--paths", "0", "--seed", "1"], usage,
          probe="--paths 0 escapes dispatch with a traceback")
    b.cli("mestimate", None, ["--problem", b.write("probe_problem", small),
                              "--n-list", "0", "--reps", "100", "--seed", "1"],
          usage, probe="--n-list 0 escapes dispatch with a traceback")
    b.cli("analyze", "@mean_contrast_problem", [], usage,
          probe="analyze on a problem fixture raises AttributeError")
    b.cli("analyze", b.write("probe_ct_jumps", jumps), [],
          {"exit": 0, "verdict": "pass", "mean_rate": 0.0},
          probe="centered CT spec ignores jump increments")


def _shrink(job, out):
    """Copy of a job at the smallest sizes that still exercise it."""
    job = json.loads(json.dumps(job))
    if job["kind"] == "cli":
        argv = [out if a == job["out"] else a for a in job["argv"]]
        for flag, value in (("--paths", "200"), ("--reps", "200"),
                            ("--n", "64"), ("--t", "64")):
            if flag in argv:
                argv[argv.index(flag) + 1] = value
        for flag in ("--n-list", "--t-list"):
            if flag in argv:
                i = argv.index(flag) + 1
                argv[i] = argv[i].split(",")[0]
        job["argv"], job["out"] = argv, out
    return job


def _first_of_each_kind(jobs):
    seen, out = set(), []
    for job in jobs:
        if job["cmd"] not in seen:
            seen.add(job["cmd"])
            out.append(job)
    return out


def generate(workload, seed, root, tiny=False):
    """Write every input of one workload under root and return its manifest.

    The manifest holds the timed jobs, the known-defect probes and one
    untimed warm-up job per command kind. tiny shrinks every job to
    warm-up sizes (for the self-check).
    """
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    b = _Builder(root, seed)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    {"verify_mc": _verify_mc, "mestimate": _mestimate,
     "spectral": _spectral}[workload](b, rng)
    _probes(b)
    jobs = [j for j in b.jobs if not j["probe"]]
    warmups = [_shrink(j, j["out"] and j["out"].replace(
        os.sep + "outputs" + os.sep, os.sep + "outputs" + os.sep + "warmup-"))
        for j in _first_of_each_kind(jobs)]
    if tiny:
        jobs = [_shrink(j, j["out"]) for j in jobs]
    manifest = {"workload": workload, "seed": seed, "why": WHY[workload],
                "jobs": jobs, "probes": [j for j in b.jobs if j["probe"]],
                "warmups": warmups}
    with open(os.path.join(root, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest
