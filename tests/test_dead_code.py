"""Every public top-level function and class of maplab has a use.

A use is a name the code of another top-level statement of a maplab module
refers to (the re-exports in __init__.py do not count), or a word of
README.md or of a perfbench script. A name only the tests call is test code
and belongs under tests/.
"""

import ast
import glob
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _names(node):
    """Every identifier the code under node refers to. A field a class body
    declares (`name: type`) is not a reference to name."""
    fields = {id(stmt.target) for sub in ast.walk(node)
              if isinstance(sub, ast.ClassDef) for stmt in sub.body
              if isinstance(stmt, ast.AnnAssign)}
    for sub in ast.walk(node):
        if id(sub) in fields:
            continue
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unused_public_names():
    """(module, name) of each public top-level def or class without a use."""
    statements = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "maplab", "*.py"))):
        if os.path.basename(path) != "__init__.py":
            module = os.path.basename(path)[:-3]
            statements += [(module, node) for node in
                           ast.parse(_read(path), path).body]
    text = "\n".join(_read(p) for p in [os.path.join(ROOT, "README.md")]
                     + glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    words = set(re.findall(r"\w+", text))
    uses = [set(_names(node)) for _, node in statements]
    unused = []
    for k, (module, node) in enumerate(statements):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and node.name not in words
                and not any(node.name in u for j, u in enumerate(uses)
                            if j != k)):
            unused.append((module, node.name))
    return unused


def test_no_public_name_is_unused():
    assert unused_public_names() == []
