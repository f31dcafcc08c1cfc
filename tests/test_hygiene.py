"""Source hygiene: every name a module imports is used in that module, and
solvers treat instances as black boxes.

An AST scan stands in for a linter's unused-import check.  `__init__.py`
is exempt (it re-exports), as are `__future__` imports.  A second scan
checks that only the instance layer and the law engine read an
integer-domain instance's `period_labels`, so no solver reads f's period off
the instance.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import hsplab

MODULES = sorted(p for p in Path(hsplab.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for every import statement in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations, e.g. -> "GroupSpec", name things the AST keeps as strings
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            notes = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            for sub in ast.walk(note) if note is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    parsed = ast.parse(sub.value, mode="eval")
                    names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _names_period_labels(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "period_labels":
            return True
        if isinstance(node, ast.keyword) and node.arg == "period_labels":
            return True
        if isinstance(node, ast.Name) and node.id == "period_labels":
            return True
        if isinstance(node, ast.arg) and node.arg == "period_labels":
            return True
    return False


def test_only_instances_and_laws_read_period_labels():
    naming = {
        path.name
        for path in Path(hsplab.__file__).parent.glob("*.py")
        if _names_period_labels(ast.parse(path.read_text(), filename=str(path)))
    }
    assert naming == {"oracles.py", "estimation.py"}
