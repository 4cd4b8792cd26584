"""Every name a library module imports is used in that module.

No linter ships with the test environment, so this stands in for the
unused-import check: deleting the last use of an import fails here.
`__init__.py` is exempt, since its imports are the package's re-exports,
and so is `from __future__ import ...`; instead its `__all__` must name
exactly what it imports, so `from ramseylab import *` keeps working.
"""

import ast
from pathlib import Path

import pytest

import ramseylab

SOURCES = sorted((Path(__file__).parent.parent / "src" / "ramseylab").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import comb, floor\nfloor(1.5)\n") == [
        "line 1: os",
        "line 2: comb",
    ]


def test_all_names_the_init_imports():
    tree = ast.parse(Path(ramseylab.__file__).read_text(encoding="utf-8"))
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert len(set(ramseylab.__all__)) == len(ramseylab.__all__)
    assert set(ramseylab.__all__) == set(imported)
