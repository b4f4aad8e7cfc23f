"""maplab benchmark: one workload, closed loop, one job at a time, one process.

    python3 perfbench/run.py --workload verify_mc --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root. The program under test is imported from
src/ and driven in-process through maplab.cli.dispatch(argv) and the README
library calls; it only sees the generated input files and argv.

A run: import, generate inputs from --seed, one untimed warm-up job per
command kind (that is set-up), then whole passes over the job list until
--seconds have elapsed (at least two passes), then the known-defect probes
once, untimed. Every job's outcome is checked against what its input says
it should be. Set-up is repeated in two child processes and setup_s is the
median of the three.

--trace 0 prints the end-to-end metrics, --trace 1 alternates untraced and
traced passes and prints the per-layer metrics plus the tracing overhead.
Human-readable lines come first; the last line is one JSON object with the
metrics named in BENCHMARK.json. The full result, environment record and
the span file go to perfbench/out/<workload>-s<seed>-t<trace>/.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)       # before numpy is imported

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

# absolute tolerances, scaled by max(1, |reference|); the finite-difference
# routes (analyze, derivatives_at_zero, CT skeleton sigma) set their size
# and the error maxima printed with each run track the actual accuracy
TOL = {"sigma2": 1e-3, "mu3": 1e-2, "mean_rate": 1e-4, "pi": 1e-9,
       "alpha0": 1e-9, "tau2": 1e-9, "bounds": 1e-9}
ERR_FLOOR = 1e-12       # error metrics never read below this
SAMPLE_Z = 6.0          # simulate: sample mean within 6 standard errors
MIN_PASSES = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="every job at warm-up sizes (self-check)")
    p.add_argument("--setup-only", type=int, default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_checkout():
    """The benchmark needs the maplab sources and BENCHMARK.json beside it."""
    missing = [p for p in (os.path.join(ROOT, "src", "maplab", "__init__.py"),
                           os.path.join(ROOT, "BENCHMARK.json"))
               if not os.path.isfile(p)]
    if missing:
        sys.stderr.write("perfbench: not a maplab checkout, missing "
                         + ", ".join(missing) + "\n")
        sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- running and checking one job -------------------------------------------

def execute(job):
    """Run one job in-process; returns (seconds, exit status, value)."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        t0 = perf_counter()
        try:
            if job["kind"] == "cli":
                from maplab import cli
                status, value = cli.dispatch(job["argv"]), None
            else:
                status, value = 0, library_call(job)
        except Exception as exc:    # a traceback out of the program
            status, value = "error", f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
    return t1 - t0, status, value


def library_call(job):
    """The README quick-start calls, looked up at call time (so traceable)."""
    from maplab import fixtures, fourier, map_model
    from maplab import io as mio
    model = (fixtures.get_fixture(job["model"][1:])
             if job["model"].startswith("@") else mio.load_spec(job["model"]))
    pi = (model.pi if job["ct"] else model.kernel.pi).tolist()
    if job["cmd"] == "variance_series":
        return {"sigma2": map_model.variance_series(model), "pi": pi}
    if job["cmd"] == "derivatives_at_zero":
        grad, hess, third = fourier.derivatives_at_zero(model)
        return {"mean_rate": float(grad[0].imag),
                "sigma2": float(-hess[0, 0].real),
                "mu3": float((1j * third).real), "pi": pi}
    return {"mu3": map_model.third_cumulant_rate(model)}


def _arg(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def reported(job, value):
    """Quantities the job reported, read back from its output files."""
    if job["kind"] == "lib":
        return value
    if job["cmd"] == "scan-lambda":
        with open(job["out"], encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        return {"rows": rows}
    if job["cmd"] == "simulate":
        import numpy as np
        with open(job["out"] + ".json", encoding="utf-8") as fh:
            meta = json.load(fh)
        return {"samples": np.fromfile(job["out"], dtype="<f8"),
                "meta": meta}
    with open(job["out"], encoding="utf-8") as fh:
        rep = json.load(fh)
    out = {"verdict": rep.get("verdict")}
    if job["cmd"] == "analyze":
        out.update(sigma2=rep["sigma2"], mu3=rep["mu3"],
                   mean_rate=rep["mean_rate"][0])
    elif "records" in rep and rep["records"] and \
            "sigma_used" in rep["records"][0]:
        out["sigma2"] = max(r["sigma_used"] ** 2 for r in rep["records"])
    if job["cmd"] == "mestimate":
        out["alpha0"] = rep["alpha0"]
        out["tau2"] = {t: v * v for t, v in rep["tau"].items()}
    if job["cmd"] == "mixing-bound" and "bounds" in rep:
        out["bounds"] = [rep["bounds"][str(t)] for t in
                         range(1, len(rep["bounds"]) + 1)]
    return out


def check(job, status, value, errors):
    """Problems with one job's outcome; errors collects |reported - exact|."""
    exp = job["expect"]
    if status == "error":
        return [f"raised out of the program: {value}"]
    if status != exp.get("exit", 0):
        return [f"exit {status}, expected {exp['exit']}"]
    if status == 2:
        return []
    try:
        got = reported(job, value)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    problems = []
    if exp.get("verdict") is not None and got.get("verdict") != exp["verdict"]:
        problems.append(f"verdict {got.get('verdict')}, expected "
                        f"{exp['verdict']}")
    for key in ("sigma2", "mu3", "mean_rate"):
        if key in exp and key in got:
            err = abs(got[key] - exp[key])
            errors.setdefault(key, []).append(err)
            if not err <= TOL[key] * max(1.0, abs(exp[key])):
                problems.append(f"{key} {got[key]!r} vs exact {exp[key]!r}")
    for key in ("pi", "bounds"):
        if key in exp and key in got:
            a, b = got[key], exp[key]
            if len(a) != len(b) or not all(abs(x - y) <= TOL[key]
                                           for x, y in zip(a, b)):
                problems.append(f"{key} {a} vs exact {b}")
    for key in ("alpha0", "tau2"):
        if key in exp:
            for theta, want in exp[key].items():
                have = got[key].get(theta)
                if key == "tau2" and have is not None:
                    errors.setdefault("sigma2", []).append(abs(have - want))
                if have is None or not abs(have - want) <= \
                        TOL[key] * max(1.0, abs(want)):
                    problems.append(f"{key}[{theta}] {have!r} vs exact "
                                    f"{want!r}")
    if "rows" in exp:
        rows = got["rows"]
        zero = [r for r in rows if float(r[0]) == 0.0]
        if len(rows) < exp["rows"] or not zero or \
                abs(float(zero[0][1]) - 1.0) > 1e-9 or \
                any(float(r[3]) > 1.0 + 1e-9 for r in rows):
            problems.append("scan-lambda table lacks lambda(0) = 1 or "
                            "|lambda| <= 1")
    if "samples" in exp:
        problems += _check_samples(job, got, exp["samples"])
    return problems


def _check_samples(job, got, exp):
    argv = job["argv"]
    paths = int(_arg(argv, "--paths"))
    horizon = float(_arg(argv, "--n") or _arg(argv, "--t"))
    y = got["samples"]
    if len(y) != paths or got["meta"].get("count") != paths:
        return [f"{len(y)} samples, expected {paths}"]
    mean = exp["mean_rate"] * horizon
    se = math.sqrt(exp["sigma2"] * horizon / paths)
    if not abs(float(y.mean()) - mean) <= SAMPLE_Z * se:
        return [f"sample mean {float(y.mean())!r} vs exact {mean!r} "
                f"(se {se:.3g})"]
    return []


def fingerprint(job, value):
    """Bytes a rerun of the same job must reproduce."""
    h = hashlib.sha256()
    if job["kind"] == "lib":
        h.update(repr(value).encode())
        return h.hexdigest()
    for path in (job["out"], job["out"] + ".json"):
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# -- passes -----------------------------------------------------------------

class Run:
    """Results of all passes of one workload run."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.passes = []        # per pass: {"wall", "traced", "times", ...}
        self.failures = []      # (job, problems)
        self.errors = {}        # key -> list of |reported - exact|
        self.prints = {}        # job id -> fingerprint of its first run
        self.statuses = []      # exit statuses of the first pass

    def one_pass(self, tracer=None):
        times, failed = [], 0
        mark = tracer.mark() if tracer else None
        for k, job in enumerate(self.jobs):
            if tracer:
                tracer.job_id = k
            dt, status, value = execute(job)
            times.append(dt)
            problems = check(job, status, value, self.errors)
            fp = fingerprint(job, value)
            if self.prints.setdefault(job["id"], fp) != fp:
                problems.append("rerun of the same argv gave different bytes")
            if problems:
                failed += 1
                self.failures.append((job, problems))
            if not self.passes:
                self.statuses.append(status)
        rec = {"wall": sum(times), "times": times, "failed": failed,
               "traced": tracer is not None}
        if tracer:
            rec["layers"] = tracer.layer_metrics(mark)
            rec["job_self"] = tracer.job_self_sums(mark[0])
        self.passes.append(rec)
        return rec


def run_probes(probes):
    out = []
    for job in probes:
        _, status, value = execute(job)
        out.append((job, status, check(job, status, value, {})))
    return out


# -- environment ------------------------------------------------------------

def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                caches[f"L{level}{kind[0].lower()}"] = fh.read().strip()
        except OSError:
            continue
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    src = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "maplab")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src.update(name.encode() + fh.read())
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "caches": caches, "machine": platform.machine(),
            "git_sha": git_sha, "src_sha256": src.hexdigest()}


# -- main -------------------------------------------------------------------

def workdir(args):
    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.tiny:
        name += "-tiny"
    if args.setup_only is not None:
        name += f"-setup{args.setup_only}"
    path = os.path.join(HERE, "out", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def setup(args):
    """Import, input generation and one warm-up job per command kind."""
    import maplab.cli  # noqa: F401

    import gen
    work = workdir(args)
    manifest = gen.generate(args.workload, args.seed, work, tiny=args.tiny)
    for job in manifest["warmups"]:
        execute(job)
    return work, manifest


def child_setups(args, n=2):
    """Set-up times of n fresh processes, one after the other."""
    out = []
    for k in range(n):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", "0",
               "--trace", str(args.trace), "--setup-only", str(k)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def main(argv=None):
    args = parse_args(argv)
    bench = require_checkout()
    if args.workload == "all":
        return run_all(args)
    import gen
    if args.workload not in gen.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(gen.WORKLOADS)}\n")
        return 2
    work, manifest = setup(args)
    setup_s = perf_counter() - T0
    if args.setup_only is not None:
        shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import spans as tracing
    tracer = tracing.Tracer() if args.trace else None
    run = Run(manifest["jobs"])
    started = perf_counter()
    while True:
        traced = bool(args.trace) and len(run.passes) % 2 == 1
        if traced:
            with tracer:
                last = run.one_pass(tracer)
        else:
            last = run.one_pass()
        elapsed = perf_counter() - started
        if len(run.passes) >= MIN_PASSES and \
                elapsed + last["wall"] > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = run_probes(manifest["probes"])
    setups = [setup_s] + child_setups(args)

    result = summarize(args, bench, manifest, run, probes, setups,
                       peak_rss_mb, tracer)
    result["environment"] = environment()
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    if tracer:
        tracer.save(os.path.join(work, "spans.npz"))
    report(result)
    print(json.dumps(result["line"]))
    return 0


def summarize(args, bench, manifest, run, probes, setups, peak_rss_mb,
              tracer):
    import gen
    plain = [p for p in run.passes if not p["traced"]]
    times = [t for p in plain for t in p["times"]]
    wall = statistics.median(p["wall"] for p in plain)
    steps = sum(gen.path_steps(j) for j in run.jobs)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    attempted = len(run.jobs) * len(run.passes)
    failed = sum(p["failed"] for p in run.passes)
    probe_failed = [(job, problems) for job, _, problems in probes if problems]
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.p90": (p90, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_ratio": ((failed + len(probe_failed)) /
                       (attempted + len(probes)), "1"),
        "sigma2_abs_err_max": (max([ERR_FLOOR] + run.errors.get("sigma2", [])),
                               "1"),
        "mu3_abs_err_max": (max([ERR_FLOOR] + run.errors.get("mu3", [])), "1"),
    }
    if steps:
        e2e["path_steps_per_s"] = (steps / wall, "1/s")
    notes = {"job_s.samples": len(times),
             "job_s.beyond_p90": sum(t > p90 for t in times),
             "passes": len(run.passes), "jobs_per_pass": len(run.jobs),
             "pass_walls": [p["wall"] for p in run.passes],
             "path_steps_per_pass": steps, "setup_s.all": setups,
             "probes": len(probes), "probes_failed": len(probe_failed)}
    statuses = run.statuses + [status for _, status, _ in probes]
    layers = {}
    consistent = True
    if tracer:
        traced = [p for p in run.passes if p["traced"]]
        import spans as tracing
        layers = tracing.median_metrics([p["layers"] for p in traced])
        for name, (value, unit) in layers.items():
            if unit == "count" and any(p["layers"][name][0] != value
                                       for p in traced):
                consistent = False
        for key in ("0", "1", "2", "error"):
            layers[f"cli.exit.{key}"] = (
                sum(str(s) == key for s, job in zip(statuses, run.jobs +
                    manifest["probes"]) if job["kind"] == "cli"), "count")
        layers["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced) - wall, "s")
        notes["job_self_over_wall_max"] = max(
            p["job_self"].get(k, 0.0) / t for p in traced
            for k, t in enumerate(p["times"]))
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = layers if args.trace else e2e
    metrics = {}
    for m in declared:
        value, unit = source[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit} != {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    line = {"correct": failed == 0 and consistent, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    job_times = [{"id": job["id"], "steps": gen.path_steps(job),
                  "median_s": statistics.median(p["times"][k] for p in plain),
                  "all_s": [p["times"][k] for p in run.passes]}
                 for k, job in enumerate(run.jobs)]
    return {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "why": manifest["why"], "jobs": job_times,
            "end_to_end": e2e, "per_layer": layers, "notes": notes,
            "counts_repeat_within_run": consistent,
            "failures": [{"argv": job["argv"],
                          "problems": problems}
                         for job, problems in run.failures],
            "probe_failures": [{"argv": job["argv"], "defect": job["probe"],
                                "problems": problems}
                               for job, problems in probe_failed],
            "line": line}


def report(result):
    print(f"maplab benchmark: workload={result['workload']} "
          f"seed={result['seed']} trace={result['trace']}")
    print(f"why: {result['why']}")
    env = result["environment"]
    print("environment: " + json.dumps(env, sort_keys=True))
    table = result["per_layer"] if result["trace"] else result["end_to_end"]
    for name, (value, unit) in sorted(table.items()):
        print(f"  {name:58s} {value!r:>24} {unit}")
    for key, value in result["notes"].items():
        print(f"  note {key}: {value}")
    for f in result["failures"]:
        print(f"  FAILED {' '.join(map(str, f['argv']))}: "
              f"{'; '.join(f['problems'])}")
    for f in result["probe_failures"]:
        print(f"  KNOWN DEFECT ({f['defect']}) "
              f"{' '.join(map(str, f['argv']))}: {'; '.join(f['problems'])}")


def run_all(args):
    """Each workload in its own process, one after the other."""
    import gen
    code = 0
    for workload in gen.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main())
