"""The CLI holds no gate. Every verdict is computed inside its check, so
cli.py reads no gate statistic of a check record by attribute name."""

import ast
import os

CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "maplab", "cli.py")

# the record fields the gates compare; n, reps and bound are left out, as
# they are also args.n, args.reps and MixingBoundTable.bound
GATE_STATISTICS = {"kolmogorov", "be_constant", "edgeworth_residual", "se",
                   "ratio", "mc_se", "empirical_max", "vacuous", "gamma_hat",
                   "sqrt_n_kolmogorov"}


def gate_reads(tree):
    """Each gate statistic the code reads as an attribute, in sorted order."""
    return sorted(node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in GATE_STATISTICS)


def test_cli_reads_no_gate_statistic():
    with open(CLI, encoding="utf-8") as fh:
        assert gate_reads(ast.parse(fh.read(), CLI)) == []


def test_the_check_sees_record_reads():
    tree = ast.parse("records[-1].kolmogorov <= threshold\n"
                     "all(abs(r.ratio - 1.0) <= 4.0 * r.mc_se for r in x)\n"
                     "args.n, args.reps, table.bound(2)\n")
    assert gate_reads(tree) == ["kolmogorov", "mc_se", "ratio"]
