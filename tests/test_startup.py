"""Cold start: no command loads scipy.

Each check runs in a fresh interpreter, because the test process itself has
long since imported all of scipy. The normal CDF and quantile
(maplab.normal) and the matrix exponential of a continuous-time spec
(map_model._expm) are maplab's own, on numpy alone.
"""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

HEAVY = ("scipy", "scipy.optimize", "scipy.sparse", "scipy.special",
         "scipy.linalg")
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


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["scan-lambda"],
    ["nonlattice-scan"],
    ["mixing-bound", "--lags", "1,2", "--paths", "200", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_ct_paths_load_no_scipy(argv, tmp_path):
    # exp(A(zeta)), and exp(G) for the skeleton of mixing-bound
    argv = argv + ["--fixture", "ct_two_state",
                   "--out", str(tmp_path / "out")]
    assert loaded_after(argv) == []


def test_mestimate_loads_no_heavy_scipy(tmp_path):
    # the root of E[F1] is bisected on the scan's bracket, without
    # scipy.optimize (which would pull in the other three modules)
    argv = ["mestimate", "--fixture", "mean_contrast_problem", "--n-list",
            "16", "--reps", "50", "--seed", "1",
            "--out", str(tmp_path / "report.json")]
    assert loaded_after(argv) == []


@pytest.mark.parametrize("argv", [
    ["verify-clt", "--fixture", "two_state", "--n-list", "16,64"],
    ["verify-be", "--fixture", "iid_rademacher", "--n-list", "16,64"],
    ["verify-edgeworth", "--fixture", "skewed_mixture", "--n-list", "16"],
    ["verify-llt", "--fixture", "gaussian_iid", "--n-list", "64"],
    ["verify-ct", "--fixture", "ct_two_state", "--t-list", "16,64"],
    ["mixing-bound", "--fixture", "two_state", "--lags", "1,2"],
    ["simulate", "--fixture", "gaussian_iid", "--n", "64"],
], ids=lambda argv: argv[0])
def test_simulation_paths_load_no_heavy_scipy(argv, tmp_path):
    # Phi and its inverse come from maplab.normal on every Monte Carlo path
    argv = argv + ["--paths", "200", "--seed", "1",
                   "--out", str(tmp_path / "out")]
    assert loaded_after(argv) == []


def _imports(tree):
    """Every module name an import statement in tree names, with the
    names a from-import takes from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{a.name}" for a in node.names)


def test_no_module_imports_scipy():
    files = glob.glob(os.path.join(SRC, "maplab", "*.py"))
    assert len(files) > 10
    for path in files:
        with open(path, encoding="utf-8") as fh:
            names = set(_imports(ast.parse(fh.read(), path)))
        assert not any(n == "scipy" or n.startswith("scipy.")
                       for n in names), path
