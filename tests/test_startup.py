"""Cold start: scipy submodules load only on the paths that call them.

Each check runs in a fresh interpreter, because the test process itself has
long since imported all of scipy.
"""

import json
import os
import subprocess
import sys

import pytest

HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.special", "scipy.linalg")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")

PROBE = """
import json, sys
import maplab.cli
argv = json.loads(sys.argv[1])
if argv:
    code = maplab.cli.dispatch(argv)
    assert code == 0, code
print(json.dumps([m for m in {heavy!r} if m in sys.modules]))
""".format(heavy=HEAVY)


def loaded_after(argv):
    """The HEAVY modules a fresh interpreter holds after running argv."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [],
    ["analyze", "--fixture", "two_state"],
    ["nonlattice-scan", "--fixture", "gaussian_iid"],
], ids=["import", "analyze", "nonlattice-scan"])
def test_discrete_paths_load_no_heavy_scipy(argv, tmp_path):
    if argv:
        argv = argv + ["--out", str(tmp_path / "report.json")]
    assert loaded_after(argv) == []


def test_ct_analyze_loads_linalg_only(tmp_path):
    argv = ["analyze", "--fixture", "ct_two_state",
            "--out", str(tmp_path / "report.json")]
    assert loaded_after(argv) == ["scipy.linalg"]


def test_mestimate_loads_special_only(tmp_path):
    # the root of E[F1] is bisected on the scan's bracket, without
    # scipy.optimize (which would pull in the other three modules)
    argv = ["mestimate", "--fixture", "mean_contrast_problem", "--n-list",
            "16", "--reps", "50", "--seed", "1",
            "--out", str(tmp_path / "report.json")]
    assert loaded_after(argv) == ["scipy.special"]
