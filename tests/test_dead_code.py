"""No dead surface in the package source: every module-level import is
used in its module, and every private module-level function or class is
referenced somewhere in the package.  ``__init__`` only re-exports, so its
imports are checked by ``test_exports.py`` instead."""

import ast
import pathlib

import pytest

import outerspine

PACKAGE = pathlib.Path(outerspine.__file__).parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _names_used(tree: ast.Module) -> set[str]:
    """Every name read as a bare name or as an attribute, and every name
    imported from another module."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


@pytest.mark.parametrize("module", [m for m in TREES if m != "__init__"])
def test_every_module_level_import_is_used(module):
    tree = TREES[module]
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [name for name in bound if name not in read] == []


def test_every_private_definition_is_referenced():
    used = set().union(*map(_names_used, TREES.values()))
    private = [
        f"{module}.{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert [name for name in private if name.split(".")[1] not in used] == []
