"""Every name a library module imports is used in that module.

No linter ships with the test environment, so this stands in for the
unused-import check: deleting the last use of an import fails here.
`__init__.py` is exempt, since its imports are the package's re-exports,
and so is `from __future__ import ...`; instead its `__all__` must name
exactly what it imports, so `from ramseylab import *` keeps working.
The runtime has no dependency: no module, import or CLI run loads numpy,
which only the tests' reference builds use.
"""

import ast
import os
import subprocess
import sys
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


@pytest.mark.parametrize(
    "script",
    [
        "import ramseylab",
        "from ramseylab.cli import main; assert main(['ramsey', '--k', '3', '--r', '2', '--n', '8']) == 0",
        "from ramseylab import export_cnf, enumerate_loose_paths; export_cnf(2, 2, 6); enumerate_loose_paths(7, 3, 3)",
    ],
    ids=["import", "cli-ramsey", "builders"],
)
def test_runtime_loads_no_numpy(script):
    # numpy is a test-only dependency: neither the package nor a run of it may import it.
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    check = f"{script}\nimport sys\nassert 'numpy' not in sys.modules, 'numpy imported'\n"
    result = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_source_imports_no_numpy():
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            names += [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            assert not any(name.split(".")[0] == "numpy" for name in names), path.name
