"""Only montecarlo knows its own internals: the draw-row format, the stream
key and the stepping kernel. No other module of maplab imports a private
montecarlo name or reads one as an attribute of the module."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "maplab")


def _private_montecarlo_names(tree):
    """Each private montecarlo name the module's code imports or reads."""
    modules = {"montecarlo"}        # names bound to the module itself
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("montecarlo", "maplab.montecarlo"):
                yield from (a.name for a in node.names
                            if a.name.startswith("_"))
            elif node.module in (None, "maplab"):
                modules |= {a.asname or a.name for a in node.names
                            if a.name == "montecarlo"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield node.attr


def private_montecarlo_uses():
    """(module, name) of each private montecarlo name used outside it."""
    uses = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)[:-3]
        if module != "montecarlo":
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            uses += [(module, name)
                     for name in _private_montecarlo_names(tree)]
    return uses


def test_no_module_uses_a_private_montecarlo_name():
    assert private_montecarlo_uses() == []


def test_the_check_sees_both_forms():
    tree = ast.parse("from .montecarlo import _stream, simulate_ct\n"
                     "from . import montecarlo as mc\n"
                     "mc._chain_steps(0)\nmc.simulate_ct\n")
    assert list(_private_montecarlo_names(tree)) == ["_stream",
                                                     "_chain_steps"]
