"""Every name a package module imports is used by that module.

A static scan: each module of the package is parsed with ast, and an
imported name counts as used when it appears as a name anywhere in the
module or is re-exported through ``__all__``.
"""

import ast
import pathlib

import pytest

import todacensus

MODULES = sorted(pathlib.Path(todacensus.__file__).parent.glob("*.py"))


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name
                if isinstance(node, ast.Import):
                    name = name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    src = "import math\nfrom os import path, sep\n__all__ = ['sep']\n"
    assert _unused_imports(src) == [(1, "math"), (2, "path")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
