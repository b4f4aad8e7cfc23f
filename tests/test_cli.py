import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from maplab import cli, fixtures
from maplab.cli import dispatch
from maplab.fixtures import (ct_two_state, fixture_names,
                             mean_contrast_kernel, two_state)
from maplab.io import (_jsonable, ct_spec_to_dict, kernel_to_dict,
                       map_spec_to_dict)
from maplab.limit_checks import (GaussianComparison, LltRecord, RhoMixReport,
                                 berry_esseen_check, clt_check,
                                 ct_limit_check, edgeworth_check, llt_check,
                                 rho_mixing_check)
from maplab.mestim import EstimatorBeRecord, estimator_be_check

from conftest import random_mixed_spec


def run(argv):
    return dispatch(argv)


def _linspace_grid(zeta_max, points):
    """The branch grid before its negative half mirrors the positive one."""
    grid = np.linspace(-zeta_max, zeta_max, points)
    return grid if 0.0 in grid else np.sort(np.append(grid, 0.0))


class TestBranchGrid:
    @pytest.mark.parametrize("fixture", ["two_state", "ct_two_state"])
    @pytest.mark.parametrize("cmd", ["analyze", "scan-lambda"])
    @pytest.mark.parametrize("points, stack", [(None, 21), (81, 41)])
    def test_one_eig_per_modulus(self, tmp_path, monkeypatch, fixture, cmd,
                                 points, stack):
        shapes = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: shapes.append(np.shape(a)) or eig(a))
        argv = [] if points is None else ["--grid-points", str(points)]
        assert run([cmd, "--fixture", fixture, *argv,
                    "--out", str(tmp_path / "out")]) == 0
        assert [s for s in shapes if len(s) == 3] == [(stack, 2, 2)]

    @pytest.mark.parametrize("points", [1, 2, 5, 40, 41])
    @pytest.mark.parametrize("zeta_max", [0.5, 0.25, 0.0, -1.0])
    def test_report_grid_is_symmetric(self, tmp_path, zeta_max, points):
        out = tmp_path / "report.json"
        assert run(["analyze", "--fixture", "two_state",
                    f"--zeta-max={zeta_max!r}", "--grid-points", str(points),
                    "--out", str(out)]) == 0
        grid = np.array(json.loads(out.read_text())["grid"])
        old = _linspace_grid(zeta_max, points)
        assert np.array_equal(np.sign(grid), np.sign(old))
        assert np.array_equal(grid[old >= 0], old[old >= 0])
        assert np.all(np.abs(grid - old) <= np.spacing(abs(zeta_max)))
        # one point: linspace gives -zeta_max alone, and 0 is added to it
        one_sided = points == 1 and zeta_max != 0
        assert np.array_equal(grid, -grid[::-1]) != one_sided

    def test_odd_grid_has_exact_zero(self, monkeypatch):
        # linspace's middle entry can miss 0 by 2e-16 (zeta_max 1.7, 41
        # points); an odd grid then still has its own point count
        stacks = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig",
                            lambda a: stacks.append(len(a)) or eig(a))
        spec = two_state()
        for zeta_max in [1.7, *np.linspace(0.01, 10, 300)]:
            for points in (2, 3, 5, 21, 40, 41, 79):
                args = argparse.Namespace(zeta_max=zeta_max,
                                          grid_points=points)
                grid = cli._branch(spec, args).grid
                assert len(grid) == points + 1 - points % 2
                assert np.array_equal(grid, -grid[::-1])
                assert stacks.pop() == len(grid) // 2 + 1


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

    _TWO = {"states": [0, 1], "P": [[0.5, 0.5], [0.5, 0.5]]}
    _EDGES = [{"from": i, "to": j, "kind": "deterministic",
               "value": [float(j)]} for i in range(2) for j in range(2)]
    _ONE = {"states": [0], "P": [[1.0]]}

    @pytest.mark.parametrize("doc", [
        # Gaussian cov that is not PSD
        {"kernel": _ONE, "increments": [{"from": 0, "to": 0,
         "kind": "gaussian", "mean": [0.0], "cov": [[-1.0]]}]},
        # mixture weights that do not sum to 1
        {"kernel": _ONE, "increments": [{"from": 0, "to": 0,
         "kind": "mixture", "atoms": [{"p": 0.5, "value": [1.0]}]}]},
        # a support edge without an increment entry
        {"kernel": _TWO, "increments": _EDGES[:3]},
        # an entry without "from"
        {"kernel": _TWO, "increments": [{k: v for k, v in e.items()
                                         if k != "from"} for e in _EDGES]},
        # an entry for an edge outside the support
        {"kernel": {"states": [0, 1], "P": [[0.0, 1.0], [1.0, 0.0]]},
         "increments": _EDGES},
        # an entry for an out-of-range state, and for a negative one
        {"kernel": _TWO, "increments": _EDGES + [{**_EDGES[0], "from": 2}]},
        {"kernel": _TWO, "increments": _EDGES + [{**_EDGES[0], "from": -1}]},
        # two entries for one edge, and a state index that is not an integer
        {"kernel": _TWO, "increments": _EDGES + _EDGES[:1]},
        {"kernel": _TWO, "increments": [{**_EDGES[0], "from": 0.9},
                                        *_EDGES[1:]]},
        # a number too large for a float (json reads it as an int)
        {"kernel": _ONE, "increments": [{"from": 0, "to": 0,
         "kind": "deterministic", "value": [10 ** 400]}]},
        # an additive component of dimension 0
        {"kernel": _TWO, "d": 0, "increments": [{**e, "value": []}
                                                for e in _EDGES]},
        # CT generator whose rows do not sum to 0
        {"generator": [[-1.0, 2.0], [1.0, -1.0]], "reward": [0.0, 1.0]},
        # CT reward of the wrong length
        {"generator": [[-1.0, 1.0], [1.0, -1.0]], "reward": [0.0, 1.0, 2.0]},
        # CT jump increments that would broadcast to (2, 2)
        {"generator": [[-1.0, 1.0], [1.0, -1.0]], "reward": [0.0, 1.0],
         "jump_increments": [[0.0, 1.0]]},
        # not a JSON object
        [1, 2],
    ])
    def test_malformed_spec_exits_2(self, tmp_path, capsys, doc):
        assert self._analyze(tmp_path, doc, capsys) == (2, "config")

    def test_centered_ct_with_jumps_has_zero_mean_rate(self, tmp_path):
        spec = tmp_path / "ct.json"
        spec.write_text(json.dumps({
            "generator": [[-1.0, 1.0], [2.0, -2.0]], "reward": [0.0, 1.0],
            "jump_increments": [[0.0, 1.0], [-0.5, 0.0]], "centered": True}))
        out = tmp_path / "r.json"
        assert run(["analyze", "--spec", str(spec), "--out", str(out)]) == 0
        assert abs(json.loads(out.read_text())["mean_rate"][0]) <= 1e-12


class TestSpecDefects:
    """Uncentered and d = 2 spec files exit 2 with a MaplabError, which
    names the defect, instead of a traceback (exit 1)."""

    _MC = ["--n-list", "16", "--paths", "100", "--seed", "0"]

    def _run(self, tmp_path, capsys, doc, argv):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        code = run([argv[0], "--spec", str(spec), "--out", str(out),
                    *argv[1:]])
        err = capsys.readouterr().err.strip()
        return code, err and json.loads(err)["error"]

    @pytest.mark.parametrize("cmd", ["verify-clt", "verify-be",
                                     "verify-edgeworth", "verify-llt"])
    def test_uncentered_discrete(self, tmp_path, capsys, cmd):
        doc = map_spec_to_dict(random_mixed_spec(7, 1))
        assert not doc["centered"]
        assert self._run(tmp_path, capsys, doc, [cmd, *self._MC]) == (
            2, "NotCentered")

    @pytest.mark.parametrize("argv", [
        ["verify-ct", "--t-list", "16", "--paths", "100", "--seed", "0"],
        ["verify-clt", *_MC]])
    def test_uncentered_ct(self, tmp_path, capsys, argv):
        doc = ct_spec_to_dict(ct_two_state(centered=False))
        assert self._run(tmp_path, capsys, doc, argv) == (2, "NotCentered")

    @pytest.mark.parametrize("argv", [
        ["verify-clt", *_MC], ["verify-be", *_MC], ["verify-edgeworth", *_MC],
        ["verify-llt", *_MC], ["analyze"], ["scan-lambda"],
        ["nonlattice-scan"]])
    def test_d2_rejected(self, tmp_path, capsys, argv):
        doc = {**map_spec_to_dict(random_mixed_spec(3, 2)), "centered": True}
        assert self._run(tmp_path, capsys, doc, argv) == (2, "NotScalar")

    @pytest.mark.parametrize("cmd", ["verify-llt", "verify-edgeworth"])
    def test_zero_cov_gaussian_lattice(self, tmp_path, capsys, cmd):
        # the +-1 walk written with Gaussian laws of covariance 0 is the
        # lattice it would be with deterministic laws, so both exit 2
        doc = {"kernel": {"states": [0, 1], "P": [[0.5, 0.5], [0.5, 0.5]]},
               "d": 1, "centered": True, "increments": [
                   {"from": i, "to": j, "kind": "gaussian",
                    "mean": [2.0 * j - 1.0], "cov": [[0.0]]}
                   for i in range(2) for j in range(2)]}
        argv = [cmd, "--n-list", "64", "--paths", "4000", "--seed", "3"]
        assert self._run(tmp_path, capsys, doc, argv) == (2, "LatticeSpec")

    def test_d2_simulate_still_runs(self, tmp_path, capsys):
        doc = {**map_spec_to_dict(random_mixed_spec(3, 2)), "centered": True}
        assert self._run(tmp_path, capsys, doc, [
            "simulate", "--n", "8", "--paths", "100", "--seed", "0"]) == (
            0, "")


    _NAN, _INF = float("nan"), float("inf")
    _SIM = ["simulate", "--n", "8", "--paths", "5", "--seed", "1"]
    _CLT = ["verify-clt", "--n-list", "16", "--paths", "200", "--seed", "1"]
    _CT_SIM = ["simulate", "--t", "4", "--paths", "10", "--seed", "1"]

    @staticmethod
    def _pm1(law):
        """The i.i.d. +-1 walk on P = [[.5, .5], [.5, .5]], edge (0, 0)'s
        law replaced by law."""
        incs = [{"from": i, "to": j, "kind": "deterministic",
                 "value": [2.0 * j - 1.0]} for i in range(2) for j in range(2)]
        incs[0] = {"from": 0, "to": 0, **law}
        return {"kernel": {"states": [0, 1], "P": [[0.5, 0.5], [0.5, 0.5]]},
                "increments": incs, "centered": True}

    @pytest.mark.parametrize("law, argv", [
        ({"kind": "gaussian", "mean": [_NAN], "cov": [[1.0]]}, _SIM),
        ({"kind": "gaussian", "mean": [0.0], "cov": [[_INF]]},
         ["nonlattice-scan"]),
        ({"kind": "mixture", "atoms": [{"p": _NAN, "value": [1.0]},
                                       {"p": 0.5, "value": [-1.0]}]}, _CLT),
        ({"kind": "deterministic", "value": [-_INF]}, ["analyze"])])
    def test_nonfinite_increment(self, tmp_path, capsys, law, argv):
        # these used to load: NaN samples, a "pass" scan, bare NaN tokens
        assert self._run(tmp_path, capsys, self._pm1(law), argv) == (
            2, "config")

    @pytest.mark.parametrize("field, value", [
        ("reward", [_NAN, 1.0]),
        ("jump_increments", [[0.0, _INF], [0.0, 0.0]])])
    def test_nonfinite_ct(self, tmp_path, capsys, field, value):
        doc = {**ct_spec_to_dict(ct_two_state()), field: value}
        assert self._run(tmp_path, capsys, doc, self._CT_SIM) == (2, "config")

    @pytest.mark.parametrize("doc, argv", [
        ({**map_spec_to_dict(random_mixed_spec(7, 1)), "centered": "false"},
         _CLT),
        ({**ct_spec_to_dict(ct_two_state(centered=False)), "centered": "no"},
         ["verify-ct", "--t-list", "16", "--paths", "100", "--seed", "0"]),
        ({**ct_spec_to_dict(ct_two_state()), "centered": 1}, _CT_SIM)])
    def test_centered_not_boolean(self, tmp_path, capsys, doc, argv):
        # bool("false") is True: such a spec used to be centred silently
        assert self._run(tmp_path, capsys, doc, argv) == (2, "config")

    _OVERFLOW = [
        ["analyze", "--zeta-max", "1e200", "--grid-points", "3"],
        ["scan-lambda", "--zeta-max", "1e200", "--grid-points", "3",
         "--out", "x.csv"],
        ["nonlattice-scan", "--k-min", "1e200", "--k-max", "2e200",
         "--k-points", "3"]]

    @pytest.mark.parametrize("argv", _OVERFLOW)
    def test_ct_fourier_overflow(self, tmp_path, capsys, monkeypatch, argv):
        # exp(A(zeta)) of ct_two_state stops being finite past about 1e20
        monkeypatch.chdir(tmp_path)
        code = run([argv[0], "--fixture", "ct_two_state", *argv[1:]])
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert (code, err) == (2, "NonFiniteOperator")
        assert list(tmp_path.iterdir()) == []

    def test_ct_fourier_overflow_stderr(self, tmp_path):
        # a fresh process prints the one error line: no traceback, and no
        # overflow warning from expm
        argv = self._OVERFLOW[2]
        proc = subprocess.run(
            [sys.executable, "-m", "maplab.cli", argv[0], "--fixture",
             "ct_two_state", *argv[1:]], cwd=tmp_path, capture_output=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(
                os.path.dirname(cli.__file__))})
        assert proc.returncode == 2
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NonFiniteOperator"

    @pytest.mark.parametrize("argv", [_OVERFLOW[0], _OVERFLOW[2]],
                             ids=lambda argv: argv[0])
    def test_discrete_fourier_overflow_stderr(self, tmp_path, argv):
        # the discrete twin: the atoms' exp overflows past |zeta m| ~ 1e308,
        # and a fresh process prints the one error line, no numpy warning
        (tmp_path / "spec.json").write_text(json.dumps({
            "kernel": {"states": [0], "P": [[1.0]]},
            "increments": [{"from": 0, "to": 0, "kind": "gaussian",
                            "mean": [1e10], "cov": [[1.0]]}]}))
        argv = [a.replace("200", "300") for a in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "maplab.cli", argv[0], "--spec",
             "spec.json", *argv[1:]], cwd=tmp_path, capture_output=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(
                os.path.dirname(cli.__file__))})
        assert proc.returncode == 2
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NonFiniteOperator"

    @pytest.mark.parametrize("argv, option", [
        (["analyze", "--fixture", "two_state", "--zeta-max", "1e308"],
         "--zeta-max"),
        (["scan-lambda", "--fixture", "two_state", "--zeta-max=-1e308",
          "--out", "x.csv"], "--zeta-max"),
        (["nonlattice-scan", "--fixture", "gaussian_iid", "--k-min=-1e308",
          "--k-max=1e308"], "--k-min/--k-max")],
        ids=["analyze", "scan-lambda", "nonlattice-scan"])
    def test_overflowing_grid_stderr(self, tmp_path, argv, option):
        # stop - start overflows: linspace used to print two numpy warnings
        # and fill the grid with inf and nan, and the command then stopped
        # with NonFiniteOperator at a frequency never given
        proc = subprocess.run(
            [sys.executable, "-m", "maplab.cli", *argv], cwd=tmp_path,
            capture_output=True, env={**os.environ, "PYTHONPATH":
                                      os.path.dirname(os.path.dirname(
                                          cli.__file__))})
        assert proc.returncode == 2
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "usage" and err["message"].startswith(option)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["analyze", "--fixture", "two_state", "--zeta-max", "8.9e307",
         "--grid-points", "5"],
        ["nonlattice-scan", "--fixture", "gaussian_iid", "--k-min=-8.9e307",
         "--k-max=8.9e307", "--k-points", "5"]], ids=lambda a: a[0])
    def test_widest_grid_runs(self, tmp_path, argv):
        # a span just below the largest float still forms its grid
        assert run([*argv, "--out", str(tmp_path / "r")]) == 0

    @pytest.mark.parametrize("G", [
        [[-1e300, 1e300], [1e300, -1e300]],
        (1e200 * np.array([[-3.0, 1.0, 2.0], [1.0, -1.5, 0.5],
                           [0.25, 2.0, -2.25]])).tolist()],
        ids=["two_state_1e300", "three_state_1e200"])
    @pytest.mark.parametrize("argv", [
        ["analyze"], ["nonlattice-scan"],
        ["mixing-bound", "--lags", "1,2", "--paths", "200", "--seed", "0"],
        ["verify-ct", "--t-list", "4", "--paths", "100", "--seed", "0"],
        ["simulate", "--t", "4", "--paths", "10", "--seed", "0"]],
        ids=lambda argv: argv[0])
    def test_ct_huge_rates(self, tmp_path, G, argv):
        # Pi - G has no inverse in floating point: the spec is rejected at
        # load, with one error line; simulate used to run without end, and
        # verify-ct to end in a LinAlgError traceback
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**ct_spec_to_dict(ct_two_state()),
                                    "generator": G, "reward": [0.0] * len(G)}))
        proc = subprocess.run(
            [sys.executable, "-m", "maplab.cli", *argv, "--spec", str(spec),
             "--out", str(tmp_path / "out")], cwd=tmp_path,
            capture_output=True, timeout=60, env={
                **os.environ, "PYTHONPATH": os.path.dirname(
                    os.path.dirname(cli.__file__))})
        assert proc.returncode == 2
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NotStochastic"
        assert not (tmp_path / "out").exists()


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
        ["analyze", "--fixture", "two_state", "--zeta-max", "nan"],
        ["nonlattice-scan", "--fixture", "gaussian_iid", "--k-min", "nan"],
        ["simulate", "--fixture", "two_state", "--n", "-5", "--paths", "3",
         "--seed", "1", "--out", "unused.bin"],
        ["simulate", "--fixture", "ct_two_state", "--t", "-2", "--paths", "3",
         "--seed", "1", "--out", "unused.bin"],
        ["simulate", "--fixture", "two_state", "--n", "4", "--paths", "3",
         "--seed", "1", "--init", '["a","b"]', "--out", "unused.bin"],
        ["verify-edgeworth", "--fixture", "skewed_mixture", "--n-list", "16",
         "--paths", "100", "--seed", "1", "--init", "[0.2,0.3,0.5]"],
    ])
    def test_non_positive_count(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)     # where a wrongly accepted run writes
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


class TestSeedRange:
    """mestimate keys its edge-count stream by the kernel and the seed, as
    every sampler does: any integer seed runs, and a rerun gives the same
    bytes, the signed 64-bit extremes and seeds outside them alike."""

    ARGV = ["mestimate", "--fixture", "mean_contrast_problem", "--n-list",
            "8", "--reps", "20", "--seed"]

    @pytest.mark.parametrize("seed", [2 ** 63, -2 ** 63 - 1, 10 ** 30])
    def test_outside_64_bits_reruns(self, seed, tmp_path):
        first, again = tmp_path / "a.json", tmp_path / "b.json"
        assert run([*self.ARGV, str(seed), "--out", str(first)]) == 0
        assert run([*self.ARGV, str(seed), "--out", str(again)]) == 0
        assert first.read_bytes() == again.read_bytes()
        assert json.loads(first.read_text())["config"]["seed"] == seed

    @pytest.mark.parametrize("seed", [2 ** 63 - 1, -2 ** 63])
    def test_extremes_run(self, seed, tmp_path):
        out = tmp_path / "r.json"
        assert run([*self.ARGV, str(seed), "--out", str(out)]) in (0, 1)
        assert json.loads(out.read_text())["config"]["seed"] == seed


class TestLatticeGate:
    """The one nonlattice certificate decides both gates and the scan: a
    lattice spec is caught at its lattice frequency whatever the grid."""

    PM1_MIX = {"kernel": {"states": [0], "P": [[1.0]]}, "centered": True,
               "increments": [{"from": 0, "to": 0, "kind": "mixture",
                               "atoms": [{"p": 0.5, "value": [1.0]},
                                         {"p": 0.5, "value": [-1.0]}]}]}

    @pytest.mark.parametrize("argv", [
        ["verify-edgeworth", "--n-list", "64,256"],
        ["verify-llt", "--n-list", "256"]])
    def test_mixture_pm1_gates_exit_2(self, tmp_path, capsys, argv):
        # the +-1 walk as one mixture law: the edgeworth gate used to pass
        # (exit 0) and verify-llt to fail its ratio (exit 1)
        spec = tmp_path / "pm1.json"
        spec.write_text(json.dumps(self.PM1_MIX))
        out = tmp_path / "r.json"
        assert run([*argv, "--spec", str(spec), "--paths", "20000",
                    "--seed", "1", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "LatticeSpec"
        assert not out.exists()

    def test_mixture_pm1_scan_fails_at_span_2(self, tmp_path):
        spec = tmp_path / "pm1.json"
        spec.write_text(json.dumps(self.PM1_MIX))
        out = tmp_path / "r.json"
        assert run(["nonlattice-scan", "--spec", str(spec),
                    "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["lattice"] == {"span": 2.0, "shift": 1.0}
        assert doc["worst_zeta"] == np.pi
        assert doc["rho_hat"] >= 1.0 - 1e-12

    @pytest.mark.parametrize("fixture, verdict", [
        ("two_state", "fail"), ("lattice_pm1", "fail"),
        ("gaussian_iid", "pass"), ("ct_two_state", "pass")])
    def test_default_grid_verdicts(self, tmp_path, fixture, verdict):
        # two_state and lattice_pm1 used to pass: the default grid misses
        # their isolated radius-1 points
        out = tmp_path / "r.json"
        code = run(["nonlattice-scan", "--fixture", fixture, "--out",
                    str(out)])
        doc = json.loads(out.read_text())
        assert (code, doc["verdict"]) == ({"pass": 0, "fail": 1}[verdict],
                                          verdict)
        assert (doc["lattice"] is None) == (verdict == "pass")


class TestTooFewPaths:
    """A standard error over one path is NaN, which no gate may read as a
    pass: one path exits 2, two paths run."""

    @pytest.mark.parametrize("argv", [
        ["mixing-bound", "--fixture", "two_state", "--lags", "1,2"],
        ["mixing-bound", "--fixture", "ct_two_state", "--lags", "1,2"],
        ["verify-llt", "--fixture", "gaussian_iid", "--n-list", "16"]])
    def test_one_path_exits_2_two_run(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run([*argv, "--paths", "1", "--seed", "1", "--out",
                    str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "TooFewPaths"
        assert not out.exists()
        assert run([*argv, "--paths", "2", "--seed", "1", "--out",
                    str(out)]) in (0, 1)
        assert json.loads(out.read_text())["config"]["paths"] == 2

    def test_mestimate_without_kept_replication(self, tmp_path, capsys):
        # at n = 1 every estimate is 0 or 1, both outside the d-ball around
        # alpha0 = 0.6: no sample is left to compare with Phi
        out = tmp_path / "r.json"
        assert run(["mestimate", "--fixture", "mean_contrast_problem",
                    "--n-list", "1", "--reps", "20", "--seed", "1", "--out",
                    str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "TooFewPaths"
        assert "n = 1 " in json.loads(err[0])["message"]
        assert not out.exists()


class TestCltGatePaths:
    """The CLT gate, kolmogorov <= 0.03 + 2 se, cannot fail where its
    threshold reaches 1 (16 paths or fewer): those exit 2 before any draw,
    and 17 paths run a gate below 1."""

    @pytest.mark.parametrize("argv", [
        ["verify-clt", "--fixture", "two_state", "--n-list", "16"],
        ["verify-ct", "--fixture", "ct_two_state", "--t-list", "16"]])
    def test_threshold_below_one(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run([*argv, "--paths", "16", "--seed", "1", "--out",
                    str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "TooFewPaths"
        assert not out.exists()
        assert run([*argv, "--paths", "17", "--seed", "1", "--out",
                    str(out)]) in (0, 1)
        record = json.loads(out.read_text())["records"][-1]
        assert record["n_samples"] == 17
        assert 0.03 + 2.0 * record["se"] < 1.0


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


class TestHorizonLists:
    """An unsorted, repeated --n-list reads one chain per path: each record
    is the one the sorted distinct list gives for its n, in the list's order,
    and reruns give the same bytes."""

    @pytest.mark.parametrize("cmd, source, size", [
        ("verify-clt", ["--fixture", "two_state"], "--paths"),
        ("verify-be", ["--fixture", "iid_rademacher"], "--paths"),
        ("verify-edgeworth", ["--fixture", "skewed_mixture"], "--paths"),
        ("verify-llt", ["--fixture", "gaussian_iid"], "--paths"),
        ("mestimate", ["--fixture", "mean_contrast_problem"], "--reps"),
    ])
    def test_unsorted_and_repeated(self, tmp_path, cmd, source, size):
        def records(n_list, name):
            out = tmp_path / name
            run([cmd, *source, "--n-list", n_list, size, "500", "--seed",
                 "5", "--out", str(out)])
            return out.read_bytes(), json.loads(out.read_text())["records"]

        raw, messy = records("64,16,64", "messy.json")
        again, _ = records("64,16,64", "again.json")
        _, tidy = records("16,64", "tidy.json")
        assert raw == again
        assert [r["n"] for r in messy if r.get("theta", 1.0) == 1.0] == \
            [64, 16, 64]
        def key(r):
            return r.get("theta"), r["n"], r.get("center")

        by_key = {key(r): r for r in tidy}
        assert len(messy) == 3 * len(tidy) // 2
        assert all(by_key[key(r)] == r for r in messy)

    @pytest.mark.parametrize("argv, horizons", [
        # distance 0.098 at n = 16 and 0.017 at n = 1024; the gate is 0.069
        (["verify-clt", "--fixture", "iid_rademacher", "--paths", "20000",
          "--seed", "2", "--n-list"], ["16", "1024"]),
        # distance 0.270 at t = 0.5 and 0.022 at t = 64; the gate is 0.117
        (["verify-ct", "--fixture", "ct_two_state", "--paths", "2000",
          "--seed", "4", "--t-list"], ["0.5", "64"])], ids=["clt", "ct"])
    def test_gate_reads_largest_horizon(self, tmp_path, argv, horizons):
        # the CLT gate reads the record at the largest horizon, wherever the
        # list puts it; it once read the last record, so the verdict hung
        # on the order of the list
        reports = []
        for order in (horizons, horizons[::-1]):
            out = tmp_path / "r.json"
            assert run([*argv, ",".join(order), "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text())["records"])
        assert reports[0] == reports[1][::-1]
        small = reports[0][0]
        assert small["kolmogorov"] > 0.03 + 2.0 * small["se"]


class TestLibraryVerdict:
    """Each gate command's verdict is its check's: the CLI parses the
    options, calls the check and writes what the check returns."""

    @pytest.mark.parametrize("argv, check", [
        (["verify-clt", "--fixture", "two_state", "--n-list", "64,16",
          "--paths", "300"],
         lambda: clt_check(two_state(), [64, 16], 300, 1)),
        (["verify-clt", "--fixture", "iid_rademacher", "--n-list", "16",
          "--paths", "8000"],
         lambda: clt_check(fixtures.iid_rademacher(), [16], 8000, 1)),
        (["verify-be", "--fixture", "iid_rademacher", "--n-list", "16,64",
          "--paths", "300"],
         lambda: berry_esseen_check(fixtures.iid_rademacher(), [16, 64], 300,
                                    1)),
        (["verify-edgeworth", "--fixture", "skewed_mixture", "--n-list",
          "16", "--paths", "300"],
         lambda: edgeworth_check(fixtures.skewed_mixture(), [16], 300, 1)),
        (["verify-llt", "--fixture", "gaussian_iid", "--n-list", "16",
          "--paths", "300"],
         lambda: llt_check(fixtures.gaussian_iid(), [16], 300, 1)),
        (["verify-ct", "--fixture", "ct_two_state", "--t-list", "4,8",
          "--paths", "300"],
         lambda: ct_limit_check(ct_two_state(), [4.0, 8.0], 300, 1)),
        (["mixing-bound", "--fixture", "two_state", "--lags", "1,2",
          "--paths", "300"],
         lambda: rho_mixing_check(two_state(), [1, 2], 300, 1)),
        (["mestimate", "--fixture", "mean_contrast_problem", "--n-list",
          "16,64", "--reps", "300"],
         lambda: estimator_be_check(fixtures.mean_contrast_problem(),
                                    [16, 64], 300, 1)),
    ], ids=["clt", "clt-fail", "be", "edgeworth", "llt", "ct", "mixing",
            "mestimate"])
    def test_report_carries_the_check(self, tmp_path, argv, check):
        result = check()
        out = tmp_path / "r.json"
        code = run([*argv, "--seed", "1", "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == (0 if result.passed else 1)
        assert report["verdict"] == ("pass" if result.passed else "fail")
        extras = json.loads(json.dumps(_jsonable(result.extras)))
        config = extras.pop("config", {})
        assert {key: report[key] for key in extras} == extras
        assert {key: report["config"][key] for key in config} == config
        assert report["records"] == json.loads(json.dumps(_jsonable(
            [vars(r) for r in result.records])))


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

    @pytest.mark.parametrize("doc, rates", [
        # two_state's P with increments 1{j = 1}: mean rate pi_1 = 0.6,
        # sigma^2 = 0.72, mu_3 = -0.624
        ({"kernel": {"states": [0, 1], "P": [[0.7, 0.3], [0.2, 0.8]]},
          "increments": [{"from": i, "to": j, "kind": "deterministic",
                          "value": [float(j == 1)]}
                         for i in range(2) for j in range(2)]},
         (0.6, 0.72, -0.624)),
        # ct_two_state: mean rate 1/3, sigma^2 = 4/27, mu_3 = 4/81
        ({"generator": [[-1.0, 1.0], [2.0, -2.0]], "reward": [0.0, 1.0]},
         (1.0 / 3.0, 4.0 / 27.0, 4.0 / 81.0))], ids=["discrete", "ct"])
    def test_analyze_prints_cumulant_rates(self, tmp_path, doc, rates):
        # the uncentered twin reports the centered one's sigma2 and mu3
        reports = {}
        for centered in (False, True):
            spec, out = tmp_path / f"{centered}.json", tmp_path / "r.json"
            spec.write_text(json.dumps({**doc, "centered": centered}))
            assert run(["analyze", "--spec", str(spec), "--out",
                        str(out)]) == 0
            reports[centered] = json.loads(out.read_text())
        raw, cen = reports[False], reports[True]
        for key, exact in zip(("sigma2", "mu3"), rates[1:]):
            assert raw[key] == pytest.approx(cen[key], rel=1e-12, abs=0)
            assert cen[key] == pytest.approx(exact, rel=1e-12, abs=0)
        assert raw["mean_rate"] == [pytest.approx(rates[0], rel=1e-15)]
        assert abs(cen["mean_rate"][0]) <= 1e-15

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


def _problem_file(tmp_path):
    doc = {"family": "mean_contrast", "xi": [[0.0, 1.0], [0.0, 1.0]],
           "kernels": {"1.0": kernel_to_dict(mean_contrast_kernel(1.0))}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCsvOutput:
    """--csv writes one row per record, one column per record field."""

    def _tables(self, tmp_path, argv):
        out, csv = tmp_path / "r.json", tmp_path / "r.csv"
        assert run(argv + ["--out", str(out), "--csv", str(csv)]) in (0, 1)
        lines = csv.read_text().splitlines()
        return json.loads(out.read_text()), lines[0].split(","), lines[1:]

    @pytest.mark.parametrize("argv, record_type", [
        (["verify-clt", "--fixture", "two_state", "--n-list", "16,64",
          "--paths", "200", "--seed", "1"], GaussianComparison),
        (["verify-llt", "--fixture", "gaussian_iid", "--n-list", "8,16",
          "--paths", "200", "--seed", "1"], LltRecord),
        (["mixing-bound", "--fixture", "two_state", "--lags", "1,2,3",
          "--paths", "200", "--seed", "1"], RhoMixReport),
        (["mestimate", "--problem", None, "--n-list", "16,64",
          "--reps", "200", "--seed", "1"], EstimatorBeRecord),
    ])
    def test_header_is_record_fields(self, tmp_path, argv, record_type):
        argv = [_problem_file(tmp_path) if a is None else a for a in argv]
        report, header, rows = self._tables(tmp_path, argv)
        assert header == [f.name for f in dataclasses.fields(record_type)]
        assert len(rows) == len(report["records"]) > 0

    def test_kernel_mixing_bound(self, tmp_path):
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps(kernel_to_dict(two_state().kernel)))
        report, header, rows = self._tables(tmp_path, [
            "mixing-bound", "--spec", str(spec), "--lags", "1,2,4",
            "--seed", "1"])
        assert header == ["lag", "bound"]
        assert [row.split(",")[0] for row in rows] == list(report["bounds"])


class TestOptions:
    """Options exist only where the command reads them."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "--fixture", "two_state", "--csv", "a.csv"],
        ["scan-lambda", "--fixture", "two_state", "--out", "s.csv",
         "--csv", "a.csv"],
        ["simulate", "--fixture", "two_state", "--n", "4", "--paths", "3",
         "--seed", "1", "--out", "y.bin", "--csv", "a.csv"],
        ["nonlattice-scan", "--fixture", "gaussian_iid", "--csv", "a.csv"],
        ["mestimate", "--fixture", "mean_contrast_problem", "--spec", "x",
         "--n-list", "16", "--reps", "10", "--seed", "1"],
        ["scan-lambda", "--fixture", "two_state"],
        ["simulate", "--fixture", "two_state", "--n", "4", "--paths", "3",
         "--seed", "1"],
    ])
    def test_rejected_before_any_work(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd, fixture, flag", [
        ("verify-llt", "gaussian_iid", []),
        ("verify-llt", "lattice_pm1", ["--allow-lattice"]),
        ("verify-edgeworth", "skewed_mixture", []),
        ("verify-edgeworth", "two_state", ["--allow-lattice"]),
    ])
    def test_config_records_allow_lattice(self, tmp_path, cmd, fixture,
                                          flag):
        out = tmp_path / "r.json"
        assert run([cmd, "--fixture", fixture, "--n-list", "16", "--paths",
                    "200", "--seed", "1", "--out", str(out)] + flag) in (0, 1)
        assert json.loads(out.read_text())["config"]["allow_lattice"] == (
            flag == ["--allow-lattice"])

    @pytest.mark.parametrize("cmd", ["verify-be", "verify-edgeworth",
                                     "verify-llt"])
    def test_discrete_checks_reject_ct_specs(self, cmd, capsys):
        assert run([cmd, "--fixture", "ct_two_state", "--n-list", "16",
                    "--paths", "10", "--seed", "1"]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == f"{cmd} accepts MapSpec, got CtMapSpec"

    def test_kernel_mixing_bound_single_lag(self, tmp_path):
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps(kernel_to_dict(two_state().kernel)))
        out = tmp_path / "mix.json"
        assert run(["mixing-bound", "--spec", str(spec), "--lags", "1",
                    "--seed", "1", "--out", str(out)]) == 0
        assert list(json.loads(out.read_text())["bounds"]) == ["1"]

    @pytest.mark.parametrize("fixture", ["two_state", "ct_two_state"])
    def test_mixing_bound_seed_on_specs_only(self, tmp_path, capsys,
                                             fixture):
        # a bare kernel draws nothing: its report is the same with --seed
        # (and --paths) or without; a spec without --seed is a usage error
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps(kernel_to_dict(two_state().kernel)))
        reports = []
        for extra in ([], ["--seed", "5"], ["--seed", "5", "--paths", "3"]):
            out = tmp_path / f"mix{len(reports)}.json"
            assert run(["mixing-bound", "--spec", str(spec), "--lags", "1,2",
                        "--out", str(out)] + extra) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]
        capsys.readouterr()
        out = tmp_path / "spec.json"
        assert run(["mixing-bound", "--fixture", fixture, "--lags", "1,2",
                    "--paths", "20", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage" and "--seed" in err["message"]
        assert not out.exists()


class TestBrokenPipe:
    """A report printed to a stdout whose reader has gone keeps its
    verdict's exit code and prints no error line."""

    class _Gone(io.TextIOBase):
        """A stdout whose every write raises, on the file descriptor fd."""

        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    # a kernel with a spectral gap passes; a periodic one has none
    KERNELS = [([[0.9, 0.1], [0.2, 0.8]], 0), ([[0.0, 1.0], [1.0, 0.0]], 1)]

    @pytest.mark.parametrize("P, code", KERNELS, ids=["pass", "fail"])
    def test_stdout_that_raises(self, tmp_path, monkeypatch, capsys, P,
                                code):
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps({"states": [0, 1], "P": P}))
        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", self._Gone(fh.fileno()))
            assert run(["mixing-bound", "--spec", str(spec), "--lags",
                        "1,2"]) == code
            # stdout now points at devnull, so the flush at exit is quiet
            assert os.path.samestat(os.fstat(fh.fileno()),
                                    os.stat(os.devnull))
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("P, code", KERNELS, ids=["pass", "fail"])
    def test_closed_pipe(self, tmp_path, P, code):
        # a fresh process whose stdout reader closes before it writes
        (tmp_path / "kernel.json").write_text(json.dumps(
            {"states": [0, 1], "P": P}))
        proc = subprocess.Popen(
            [sys.executable, "-m", "maplab.cli", "mixing-bound", "--spec",
             "kernel.json", "--lags", "1,2"], cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.path.dirname(
                os.path.dirname(cli.__file__))})
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (code, b"")


# every numeric or list option of every subcommand gets each of these values
_VALUES = ["0", "-1", "nan", "inf", "1e999", "x", ""]
# the values above that an option's contract allows; it forbids all others
_ALLOWED = {"--seed": {"0", "-1"}, "--zeta-max": {"0", "-1"},
            "--k-min": {"0", "-1"}, "--k-max": {"0", "-1"}}
_NOT_NUMERIC = {"--fixture", "--spec", "--problem", "--out", "--csv"}
# a cheap valid invocation per subcommand; PROBLEM is a problem file
_BASE = {
    "analyze": ["--fixture", "two_state", "--grid-points", "5"],
    "scan-lambda": ["--fixture", "two_state", "--grid-points", "5"],
    "simulate": ["--fixture", "two_state", "--n", "4", "--paths", "3",
                 "--seed", "1"],
    "verify-clt": ["--fixture", "two_state", "--n-list", "8", "--paths",
                   "20", "--seed", "1"],
    "verify-be": ["--fixture", "iid_rademacher", "--n-list", "8",
                  "--paths", "20", "--seed", "1"],
    "verify-edgeworth": ["--fixture", "skewed_mixture", "--n-list", "8",
                         "--paths", "20", "--seed", "1"],
    "verify-llt": ["--fixture", "gaussian_iid", "--n-list", "8", "--paths",
                   "20", "--seed", "1"],
    "verify-ct": ["--fixture", "ct_two_state", "--t-list", "4", "--paths",
                  "20", "--seed", "1"],
    "mixing-bound": ["--fixture", "two_state", "--lags", "1,2", "--paths",
                     "20", "--seed", "1"],
    "nonlattice-scan": ["--fixture", "gaussian_iid", "--k-points", "5"],
    "mestimate": ["--problem", "PROBLEM", "--n-list", "8", "--reps", "20",
                  "--seed", "1"],
}
_VALUE_OPTIONS = [(name, flag) for name, command in cli.COMMANDS.items()
                  for flag, keywords in command.options
                  if flag.startswith("--") and flag not in _NOT_NUMERIC
                  and "action" not in keywords]


class TestOptionValues:
    def test_table_walk_covers_every_subcommand(self):
        assert {name for name, _ in _VALUE_OPTIONS} == set(_BASE)
        assert ("simulate", "--init") in _VALUE_OPTIONS

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(option=st.sampled_from(_VALUE_OPTIONS),
           value=st.sampled_from(_VALUES))
    def test_bad_values_exit_2(self, tmp_path, option, value):
        name, flag = option
        argv = [_problem_file(tmp_path) if a == "PROBLEM" else a
                for a in _BASE[name]]
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
        code = run([name, *argv, "--out", str(tmp_path / "out")])
        assert code in ((0, 1) if value in _ALLOWED.get(flag, ()) else (2,))
