"""Golden bytes: fixed CLI runs against their committed sha256s.

"Same seed => same bytes" holds across versions, not only within one. Each
entry runs one maplab command in a fresh directory and records its exit
code and the sha256 of its stdout and of every file it writes. Spec files
are written into that directory under fixed relative names, as a report's
config.spec records the path as it was given. An intended byte change
updates the entries it moves, and the change log names each one; the
corpus in golden.json is regenerated by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

from maplab.cli import dispatch

GOLDEN = pathlib.Path(__file__).with_name("golden.json")


def _gauss(i, j, mean, cov):
    return {"from": i, "to": j, "kind": "gaussian", "mean": mean, "cov": cov}


def _point(i, j, value):
    return {"from": i, "to": j, "kind": "deterministic", "value": value}


def _mix(i, j, *atoms):
    return {"from": i, "to": j, "kind": "mixture",
            "atoms": [{"p": p, "value": v} for p, v in atoms]}


SPECS = {
    # multi-atom runs of 2 and 3 atoms beside a one-atom run, points and
    # Gaussians
    "mix.json": {
        "kernel": {"states": [0, 1, 2], "P": [[0.5, 0.3, 0.2],
                                              [0.2, 0.5, 0.3],
                                              [0.4, 0.1, 0.5]]},
        "increments": [
            _mix(0, 0, (0.5, [-1.0]), (0.3, [0.5]), (0.2, [2.0])),
            _point(0, 1, [1.0]), _gauss(0, 2, [0.3], [[0.5]]),
            _mix(1, 0, (0.6, [1.5]), (0.4, [-0.5])), _point(1, 1, [-0.7]),
            _mix(1, 2, (1.0, [0.25])), _point(2, 0, [0.0]),
            _mix(2, 1, (0.25, [-2.0]), (0.75, [1.0])),
            _gauss(2, 2, [-0.2], [[1.0]])],
        "centered": True},
    "d2.json": {
        "kernel": {"states": [0, 1], "P": [[0.6, 0.4], [0.3, 0.7]]}, "d": 2,
        "increments": [
            _mix(0, 0, (0.5, [1.0, 0.0]), (0.5, [0.0, 1.0])),
            _gauss(0, 1, [0.0, 0.5], [[1.0, 0.3], [0.3, 0.5]]),
            _point(1, 0, [-1.0, 0.5]),
            _mix(1, 1, (0.2, [2.0, -1.0]), (0.3, [0.0, 0.0]),
                 (0.5, [-1.0, 1.0]))]},
    "ct.json": {
        "generator": [[-2.0, 1.5, 0.5], [1.0, -1.5, 0.5], [0.5, 2.5, -3.0]],
        "reward": [1.0, -0.5, 0.2],
        "jump_increments": [[0.0, 0.5, -1.0], [0.3, 0.0, 0.2],
                            [-0.4, 0.1, 0.0]],
        "centered": True},
}

_REPORT = ["--out", "report.json", "--csv", "records.csv"]

ENTRIES = {
    # the README commands, at path counts that keep the module fast
    "readme.fixtures": ["fixtures", "list"],
    "readme.analyze": ["analyze", "--fixture", "two_state", "--out",
                       "report.json"],
    "readme.scan-lambda": ["scan-lambda", "--fixture", "two_state", "--out",
                           "scan.csv"],
    "readme.simulate": ["simulate", "--fixture", "two_state", "--n", "1024",
                        "--paths", "1000", "--seed", "7", "--out", "y.bin"],
    "readme.verify-clt": ["verify-clt", "--fixture", "two_state", "--n-list",
                          "256,1024", "--paths", "5000", "--seed", "1",
                          *_REPORT],
    "readme.verify-be": ["verify-be", "--fixture", "iid_rademacher",
                         "--n-list", "256,1024,4096", "--paths", "2000",
                         "--seed", "2", *_REPORT],
    "readme.verify-edgeworth": ["verify-edgeworth", "--fixture",
                                "skewed_mixture", "--n-list", "64,256",
                                "--paths", "5000", "--seed", "5", *_REPORT],
    "readme.verify-llt": ["verify-llt", "--fixture", "gaussian_iid",
                          "--n-list", "4096", "--paths", "2000", "--seed",
                          "3", *_REPORT],
    "readme.verify-ct": ["verify-ct", "--fixture", "ct_two_state", "--t-list",
                         "256,1024", "--paths", "1000", "--seed", "1",
                         *_REPORT],
    "readme.mixing-bound": ["mixing-bound", "--fixture", "two_state",
                            "--lags", "1,2,3,4", "--paths", "5000", "--seed",
                            "2", *_REPORT],
    "readme.nonlattice-scan": ["nonlattice-scan", "--fixture", "gaussian_iid",
                               "--out", "report.json"],
    "readme.mestimate": ["mestimate", "--fixture", "mean_contrast_problem",
                         "--n-list", "256,1024", "--reps", "2000", "--seed",
                         "17", *_REPORT],
    # a spec with multi-atom mixture runs
    "mix.simulate": ["simulate", "--spec", "mix.json", "--n", "64",
                     "--paths", "500", "--seed", "3", "--out", "y.bin"],
    "mix.verify-clt": ["verify-clt", "--spec", "mix.json", "--n-list",
                       "64,256", "--paths", "2000", "--seed", "1", *_REPORT],
    "mix.mixing-bound": ["mixing-bound", "--spec", "mix.json", "--lags",
                         "1,2,3", "--paths", "2000", "--seed", "2",
                         *_REPORT],
    "mix.verify-edgeworth-init": ["verify-edgeworth", "--spec", "mix.json",
                                  "--n-list", "32,128", "--paths", "3000",
                                  "--seed", "4", "--init", "[1, 0, 0]",
                                  "--allow-lattice", *_REPORT],
    "d2.simulate": ["simulate", "--spec", "d2.json", "--n", "32", "--paths",
                    "300", "--seed", "5", "--out", "y.bin"],
    # a continuous-time spec with jump increments
    "ct.simulate": ["simulate", "--spec", "ct.json", "--t", "8", "--paths",
                    "300", "--seed", "4", "--out", "y.bin"],
    "ct.verify-ct": ["verify-ct", "--spec", "ct.json", "--t-list", "4,16",
                     "--paths", "1000", "--seed", "1", *_REPORT],
    "ct.mixing-bound": ["mixing-bound", "--spec", "ct.json", "--lags", "1,2",
                        "--paths", "1000", "--seed", "5", *_REPORT],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_entry(argv) -> dict:
    """Exit code and output sha256s of one command run in a fresh
    directory that holds the SPECS files."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in SPECS.items():
            pathlib.Path(tmp, name).write_text(json.dumps(doc))
        stdout = io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout):
                code = dispatch(argv)
        finally:
            os.chdir(cwd)
        files = {path.name: _sha(path.read_bytes())
                 for path in sorted(pathlib.Path(tmp).iterdir())
                 if path.name not in SPECS}
    if stdout.getvalue():
        files["<stdout>"] = _sha(stdout.getvalue().encode())
    return {"exit": code, "files": files}


def test_golden_bytes():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(ENTRIES)
    moved = [name for name, argv in ENTRIES.items()
             if run_entry(argv) != golden[name]]
    assert moved == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: run_entry(argv)
                                  for name, argv in ENTRIES.items()},
                                 indent=2, sort_keys=True) + "\n")
