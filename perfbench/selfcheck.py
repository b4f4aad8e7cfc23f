"""Tiny-size self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload at warm-up sizes, untraced and traced, each in its own
process, and asserts three things:

1. every named metric appears with its unit on every workload where it
   applies, and the last output line carries every metric BENCHMARK.json
   names;
2. per job, the self times of the layer spans sum to no more than the job's
   wall time;
3. fail_ratio counts the known-defect probes: it equals (failed timed jobs +
   failed probes) / (timed jobs + probes), and every failing probe is listed
   by argv.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ALL = ("verify_mc", "mestimate", "spectral")

E2E = {"setup_s": "s", "wall_s": "s", "job_s.p50": "s", "job_s.p90": "s",
       "peak_rss_mb": "MB", "fail_ratio": "1", "sigma2_abs_err_max": "1",
       "mu3_abs_err_max": "1"}
SIMULATING = ("verify_mc", "mestimate")

# per-layer metric -> (unit, workloads where the layer does that work)
_MC = ("verify_mc",)
_SP = ("spectral",)
_ME = ("mestimate",)
LAYERS = {
    "montecarlo.simulate_discrete.self_s": ("s", _MC),
    "montecarlo.simulate_discrete.ns_per_path_step": ("ns", _MC),
    **{f"montecarlo.simulate_discrete.ns_per_path_step.{t}": ("ns", _MC)
       for t in ("det", "gauss", "mixture", "S2", "S8", "S32")},
    "montecarlo.simulate_ct.self_s": ("s", _MC),
    "montecarlo.simulate_ct.ns_per_jump": ("ns", _MC),
    "montecarlo.spec_content_hash.calls": ("count", _MC),
    "mestim.simulate_edge_counts.self_s": ("s", _ME),
    "mestim.simulate_edge_counts.ns_per_path_step": ("ns", _ME),
    "mestim.build_problem.self_s": ("s", _ME),
    "mestim.estimator_be_check.self_s": ("s", _ME),
    "map_model.exact_moments.calls": ("count", ALL),
    "map_model.exact_moments.self_s": ("s", ALL),
    "map_model.exact_moments.recursion_steps": ("count", ALL),
    "map_model.third_cumulant_rate.total_s": ("s", _MC + _SP),
    "map_model.variance_series.calls": ("count", ALL),
    "map_model.variance_series.self_s": ("s", ALL),
    "map_model.ct_sample_skeleton.calls": ("count", _MC),
    "map_model.ct_sample_skeleton.self_s": ("s", _MC),
    "map_model.CtMapSpec.pi.calls": ("count", _MC + _SP),
    "increments.IncrementLaw.cf.calls": ("count", _MC + _SP),
    "increments.IncrementLaw.cf.self_s": ("s", _MC + _SP),
    "increments.IncrementLaw.moment.calls": ("count", ALL),
    "increments.IncrementLaw.moment.self_s": ("s", ALL),
    "scipy.linalg.expm.calls": ("count", _MC + _SP),
    "fourier.lambda_branch.calls": ("count", _SP),
    "fourier.lambda_branch.self_s": ("s", _SP),
    "fourier.lambda_branch.us_per_grid_point": ("us", _SP),
    "fourier.derivatives_at_zero.calls": ("count", _SP),
    "fourier.derivatives_at_zero.total_s": ("s", _SP),
    "fourier.nonlattice_scan.calls": ("count", _MC + _SP),
    "fourier.nonlattice_scan.self_s": ("s", _MC + _SP),
    "fourier.nonlattice_scan.us_per_point": ("us", _MC + _SP),
    "chain_core.solve_stationary.calls": ("count", ALL),
    "chain_core.solve_stationary.self_s": ("s", ALL),
    "chain_core.l2_operator_norm.calls": ("count", ALL),
    "chain_core.l2_operator_norm.self_s": ("s", ALL),
    "chain_core.spectral_gap_report.self_s": ("s", _MC + _SP),
    "limit_checks.kolmogorov_distance.calls": ("count", _MC + _ME),
    "limit_checks.kolmogorov_distance.self_s": ("s", _MC + _ME),
    "limit_checks.kolmogorov_distance.ns_per_sample": ("ns", _MC + _ME),
    "limit_checks.self_s": ("s", _MC),
    "fixtures.get_fixture.self_s": ("s", _MC + _SP),
    "fixtures.mean_contrast_problem.self_s": ("s", _ME),
    "io.load_spec.calls": ("count", _MC + _SP),
    "io.load_spec.self_s": ("s", _MC + _SP),
    "io.write_report.calls": ("count", ALL),
    "io.write_report.self_s": ("s", ALL),
    "io.bytes_written": ("count", ALL),
    "cli.dispatch.self_s": ("s", ALL),
    **{f"cli.exit.{k}": ("count", ALL) for k in ("0", "1", "2", "error")},
    "trace.overhead_s": ("s", ALL),
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "out", f"{workload}-s1-t{trace}-tiny",
                        "result.json")
    with open(path, encoding="utf-8") as fh:
        return line, json.load(fh)


def check(workload, trace, line, result, bench):
    problems = []
    table = result["per_layer"] if trace else result["end_to_end"]
    wanted = dict(LAYERS) if trace else {
        name: (unit, ALL) for name, unit in E2E.items()}
    if not trace:
        wanted["path_steps_per_s"] = ("1/s", SIMULATING)
    for name, (unit, where) in wanted.items():
        if workload not in where:
            continue
        if name not in table:
            problems.append(f"{name} missing")
        elif table[name][1] != unit:
            problems.append(f"{name} has unit {table[name][1]}, not {unit}")
        elif unit != "count" and not table[name][0] > 0 and \
                name != "trace.overhead_s":
            problems.append(f"{name} = {table[name][0]} where it applies")
    if not trace and workload not in SIMULATING and \
            "path_steps_per_s" in table:
        problems.append("path_steps_per_s reported without simulation")
    for m in bench["per_layer" if trace else "end_to_end"]:
        got = line["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"last line lacks {m['name']} [{m['unit']}]")
    notes = result["notes"]
    if trace and not notes["job_self_over_wall_max"] <= 1.0:
        problems.append("layer self times exceed a job's wall time: "
                        f"{notes['job_self_over_wall_max']}")
    attempted = line["attempted"] + notes["probes"]
    failed = line["failed"] + notes["probes_failed"]
    fail_ratio = result["end_to_end"]["fail_ratio"][0]
    if abs(fail_ratio - failed / attempted) > 1e-12:
        problems.append(f"fail_ratio {fail_ratio} != {failed}/{attempted}")
    if notes["probes_failed"] != len(result["probe_failures"]) or \
            any(not f["argv"] for f in result["probe_failures"]):
        problems.append("failing probes are not all listed by argv")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = 0
    for workload in ALL:
        for trace in (0, 1):
            line, result = run(workload, trace)
            problems = check(workload, trace, line, result, bench)
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload} trace={trace}: "
                  f"fail_ratio={result['end_to_end']['fail_ratio'][0]:.4f} "
                  f"probes_failed={result['notes']['probes_failed']}")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
