"""The package's public surface is the union of its modules' `__all__` lists."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import sublap
from sublap import algebra, bounds, connection, curvature, spectral

MODULES = (algebra, connection, curvature, bounds, spectral)


def test_public_names_are_unique():
    assert len(sublap.__all__) == len(set(sublap.__all__))


def test_public_names_are_the_modules_lists():
    assert sublap.__all__ == [n for m in MODULES for n in m.__all__]


def test_each_public_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(sublap, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from sublap import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sublap.__all__)


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sublap").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _unread_imports(tree: ast.Module) -> set[str]:
    """Names an import binds that the module never reads and does not list
    in its `__all__`; star imports and `__future__` bind none here."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return bound - read - exported


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert _unread_imports(ast.parse(path.read_text(encoding="utf-8"))) == set()
