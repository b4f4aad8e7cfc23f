import json
import os
import subprocess
import sys

import numpy as np
import pytest

from maplab.cli import dispatch
from maplab.fixtures import fixture_names, two_state
from maplab.io import kernel_to_dict, map_spec_to_dict


def run(argv):
    return dispatch(argv)


class TestDispatch:
    def test_fixtures_list(self, capsys):
        assert run(["fixtures", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == fixture_names()

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_unknown_flag(self):
        assert run(["fixtures", "list", "--bogus"]) == 2

    def test_unknown_fixture(self, capsys):
        code = run(["analyze", "--fixture", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"] == "usage"

    def test_missing_spec_file(self):
        assert run(["analyze", "--spec", "/nonexistent.json"]) == 2

    def test_seed_required(self):
        assert run(["verify-clt", "--fixture", "two_state",
                    "--n-list", "16", "--paths", "100"]) == 2


class TestInputBoundary:
    """Bad model files exit 2 with a JSON error, never with a traceback."""

    def _analyze(self, tmp_path, doc, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        code = run(["analyze", "--spec", str(spec),
                    "--out", str(tmp_path / "r.json")])
        return code, json.loads(capsys.readouterr().err.strip())["error"]

    def test_nan_in_kernel(self, tmp_path, capsys):
        doc = {"kernel": {"states": [0, 1],
                          "P": [[0.5, float("nan")], [0.5, 0.5]]},
               "increments": [{"from": i, "to": j, "kind": "deterministic",
                               "value": [float(j)]}
                              for i in range(2) for j in range(2)]}
        assert self._analyze(tmp_path, doc, capsys) == (2, "NotStochastic")

    def test_reducible_generator(self, tmp_path, capsys):
        doc = {"generator": [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0],
                             [0.0, 0.0, 0.0]],
               "reward": [0.0, 1.0, 2.0], "centered": True}
        assert self._analyze(tmp_path, doc, capsys) == (2, "NonIrreducible")

    def test_nonfinite_generator(self, tmp_path, capsys):
        doc = {"generator": [[-1.0, 1.0], [float("inf"), -2.0]],
               "reward": [0.0, 1.0]}
        assert self._analyze(tmp_path, doc, capsys) == (2, "NotStochastic")

    def test_centered_ct_with_jumps_has_zero_mean_rate(self, tmp_path):
        spec = tmp_path / "ct.json"
        spec.write_text(json.dumps({
            "generator": [[-1.0, 1.0], [2.0, -2.0]], "reward": [0.0, 1.0],
            "jump_increments": [[0.0, 1.0], [-0.5, 0.0]], "centered": True}))
        out = tmp_path / "r.json"
        assert run(["analyze", "--spec", str(spec), "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["mean_rate"][0]) <= 1e-12


class TestCountsAndLists:
    """Non-positive counts and list entries exit 2 before any work is done."""

    @pytest.mark.parametrize("argv", [
        ["verify-clt", "--fixture", "two_state", "--n-list", "16",
         "--paths", "0", "--seed", "1"],
        ["simulate", "--fixture", "two_state", "--n", "4", "--paths", "-3",
         "--seed", "1", "--out", "unused.bin"],
        ["mestimate", "--fixture", "mean_contrast_problem", "--n-list", "16",
         "--reps", "0", "--seed", "1"],
        ["analyze", "--fixture", "two_state", "--grid-points", "0"],
        ["nonlattice-scan", "--fixture", "gaussian_iid", "--k-points", "0"],
    ])
    def test_non_positive_count(self, argv):
        assert run(argv) == 2

    @pytest.mark.parametrize("argv", [
        ["verify-clt", "--fixture", "two_state", "--n-list", "0",
         "--paths", "100", "--seed", "1"],
        ["verify-clt", "--fixture", "two_state", "--n-list", "16,-4",
         "--paths", "100", "--seed", "1"],
        ["mestimate", "--fixture", "mean_contrast_problem", "--n-list", "0",
         "--reps", "100", "--seed", "1"],
        ["mixing-bound", "--fixture", "two_state", "--lags", "0,1",
         "--paths", "100", "--seed", "1"],
        ["verify-ct", "--fixture", "ct_two_state", "--t-list", "0,8",
         "--paths", "100", "--seed", "1"],
        ["verify-ct", "--fixture", "ct_two_state", "--t-list", "-1.5",
         "--paths", "100", "--seed", "1"],
        ["verify-clt", "--fixture", "two_state", "--n-list", ",",
         "--paths", "100", "--seed", "1"],
        ["nonlattice-scan", "--fixture", "gaussian_iid", "--k-min", "0",
         "--k-max", "0", "--k-points", "1"],
    ])
    def test_non_positive_list_entry(self, argv, capsys):
        assert run(argv) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"


class TestModelType:
    """A subcommand given a model it cannot use names what it accepts."""

    def test_analyze_problem_fixture(self, capsys):
        assert run(["analyze", "--fixture", "mean_contrast_problem"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"
        assert err["message"] == ("analyze accepts MapSpec or CtMapSpec, "
                                  "got MEstimationProblem")

    def test_analyze_bare_kernel(self, tmp_path, capsys):
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps(kernel_to_dict(two_state().kernel)))
        assert run(["analyze", "--spec", str(spec)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"
        assert "StochasticKernel" in err["message"]

    def test_verify_ct_discrete_spec(self, capsys):
        assert run(["verify-ct", "--fixture", "two_state", "--t-list", "8",
                    "--paths", "100", "--seed", "1"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == "verify-ct accepts CtMapSpec, got MapSpec"

    def test_mixing_bound_accepts_bare_kernel(self, tmp_path):
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps(kernel_to_dict(two_state().kernel)))
        out = tmp_path / "mix.json"
        assert run(["mixing-bound", "--spec", str(spec), "--lags", "1,2",
                    "--seed", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["bounds"]["2"] == pytest.approx(0.5)

    def test_wrong_shape_increment_field(self, tmp_path, capsys):
        doc = map_spec_to_dict(two_state())
        doc["increments"][0]["value"] = [1.0, 2.0]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert run(["analyze", "--spec", str(spec)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


class TestParserReuse:
    def test_dispatch_sequence_matches_fresh_processes(self, tmp_path):
        # one process dispatching many subcommands must behave exactly like
        # one fresh process per command: same exit codes, same report bytes
        jobs = [
            ["analyze", "--fixture", "two_state"],
            ["nonlattice-scan", "--fixture", "lattice_pm1", "--k-min",
             str(np.pi), "--k-max", str(2 * np.pi), "--k-points", "2"],
            ["analyze", "--fixture", "nope"],
            ["scan-lambda", "--fixture", "skewed_mixture",
             "--grid-points", "11"],
            ["verify-clt", "--fixture", "two_state", "--n-list", "16",
             "--paths", "100"],
            ["mixing-bound", "--fixture", "two_state", "--lags", "1,2",
             "--paths", "500", "--seed", "3"],
            ["analyze", "--fixture", "ct_two_state", "--zeta-max", "0.25"],
        ]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            dispatch.__code__.co_filename)))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        fresh, reused = [], []
        for k, argv in enumerate(jobs):
            out = tmp_path / f"fresh{k}"
            proc = subprocess.run(
                [sys.executable, "-m", "maplab.cli", *argv, "--out", str(out)],
                env=env, capture_output=True)
            fresh.append((proc.returncode,
                          out.read_bytes() if out.exists() else None))
        for _ in range(2):
            for k, argv in enumerate(jobs):
                out = tmp_path / f"reused{k}"
                code = run(argv + ["--out", str(out)])
                reused.append((code, out.read_bytes() if out.exists() else None))
                if out.exists():
                    out.unlink()
        assert reused == fresh + fresh
        assert [code for code, _ in fresh] == [0, 1, 2, 0, 2, 0, 0]


class TestReports:
    def test_verify_clt_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["verify-clt", "--fixture", "two_state",
                    "--n-list", "64,256", "--paths", "20000", "--seed", "7",
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"
        assert doc["spec_hash"]
        assert doc["config"]["seed"] == 7
        assert len(doc["records"]) == 2

    def test_byte_identical_across_thread_counts(self, tmp_path):
        argv = ["verify-be", "--fixture", "iid_rademacher",
                "--n-list", "64,256", "--paths", "5000", "--seed", "3"]
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv + ["--out", str(o1)]) == 0
        assert run(argv + ["--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_spec_file_input(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(map_spec_to_dict(two_state())))
        out = tmp_path / "r.json"
        code = run(["analyze", "--spec", str(spec_path), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["sigma2"] == pytest.approx(0.72, abs=1e-5)

    def test_scan_lambda_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["scan-lambda", "--fixture", "two_state",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("zeta,")
        assert len(lines) > 10

    def test_simulate_binary_output(self, tmp_path):
        out = tmp_path / "y.bin"
        assert run(["simulate", "--fixture", "two_state", "--n", "32",
                    "--paths", "50", "--seed", "5", "--out", str(out)]) == 0
        vals = np.frombuffer(out.read_bytes(), dtype="<f8")
        assert len(vals) == 50
        meta = json.loads((tmp_path / "y.bin.json").read_text())
        assert meta["spec_hash"]

    def test_mixing_bound_kernel_only(self, tmp_path):
        out = tmp_path / "mix.json"
        code = run(["mixing-bound", "--fixture", "two_state", "--lags",
                    "1,2,3", "--paths", "5000", "--seed", "2",
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"

    def test_nonlattice_scan_verdicts(self, tmp_path):
        assert run(["nonlattice-scan", "--fixture", "gaussian_iid",
                    "--out", str(tmp_path / "g.json")]) == 0
        # the lattice fixture stays below radius 1 on a generic grid but is
        # caught at the exact lattice frequency
        code = run(["nonlattice-scan", "--fixture", "lattice_pm1",
                    "--k-min", str(np.pi), "--k-max", str(2 * np.pi),
                    "--k-points", "2", "--out", str(tmp_path / "l.json")])
        assert code == 1

    def test_verify_ct(self, tmp_path):
        out = tmp_path / "ct.json"
        code = run(["verify-ct", "--fixture", "ct_two_state",
                    "--t-list", "64,256", "--paths", "20000", "--seed", "11",
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["fractional_part_negligible"] is True

    def test_verify_edgeworth_allow_lattice(self, tmp_path):
        code = run(["verify-edgeworth", "--fixture", "two_state",
                    "--n-list", "64", "--paths", "5000", "--seed", "1",
                    "--out", str(tmp_path / "e.json")])
        assert code == 2       # lattice fixture rejected without the flag
        code = run(["verify-edgeworth", "--fixture", "two_state",
                    "--n-list", "64", "--paths", "5000", "--seed", "1",
                    "--allow-lattice", "--out", str(tmp_path / "e2.json")])
        assert code in (0, 1)

    def test_mestimate(self, tmp_path):
        out = tmp_path / "m.json"
        code = run(["mestimate", "--fixture", "mean_contrast_problem",
                    "--n-list", "64,256", "--reps", "5000", "--seed", "17",
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "pass"
        assert doc["d_ball"] == pytest.approx(0.25)

    def test_mestimate_problem_file(self, tmp_path):
        from maplab.fixtures import mean_contrast_kernel
        from maplab.io import kernel_to_dict
        doc = {
            "family": "mean_contrast",
            "xi": [[0.0, 1.0], [0.0, 1.0]],
            "kernels": {"1.0": kernel_to_dict(mean_contrast_kernel(1.0))},
        }
        p = tmp_path / "prob.json"
        p.write_text(json.dumps(doc))
        code = run(["mestimate", "--problem", str(p), "--n-list", "64",
                    "--reps", "2000", "--seed", "5",
                    "--out", str(tmp_path / "m.json")])
        assert code == 0
