"""Every name a library module imports is used in that module.

No linter ships with the test environment, so this stands in for the
unused-import check: deleting the last use of an import fails here.
`__init__.py` is exempt, since its imports are the package's re-exports,
and so is `from __future__ import ...`; instead its `__all__` must name
exactly what it imports plus the names of its lazy table, so
`from ramseylab import *` keeps working.  `import ramseylab` loads only
`errors`, `hypergraphs`, `patterns` and the engines (`search`); the modules
no engine reads (`cnf`, `constructions` and the proof layer of `machinery`,
`exact` and `inequalities`) load on first use, and the engines' calls load
none of them.  The CLI imports every module at once.
The runtime has no dependency: no module, import or CLI run loads numpy,
which only the tests' reference builds use.  The result types are
NamedTuples, so neither the package nor the CLI loads `dataclasses` or
`inspect`.
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
    imported += [name for names in ramseylab._LAZY.values() for name in names]
    assert len(set(ramseylab.__all__)) == len(ramseylab.__all__)
    assert set(ramseylab.__all__) == set(imported)


def run_python(script):
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)


def test_import_leaves_the_proof_layer_unloaded():
    check = (
        "import ramseylab, sys\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('ramseylab'))\n"
        "assert loaded == ['ramseylab', 'ramseylab.errors', 'ramseylab.hypergraphs',"
        " 'ramseylab.patterns', 'ramseylab.search'], loaded\n"
    )
    result = run_python(check)
    assert result.returncode == 0, result.stderr


def test_engine_calls_load_no_lazy_module():
    # The engines' calls, their witness re-checks and the text round trip of an
    # extremal leave `cnf`, `constructions` and the proof layer unloaded; the CLI
    # still imports them all at once.
    check = (
        "import ramseylab as R, sys\n"
        "fails = R.decide_ramsey(2, 4, 8)\n"
        "assert fails.verdict == 'fails' and R.find_mono_loose_path(fails.witness, 3) is None\n"
        "assert R.decide_ramsey(3, 2, 8).verdict == 'holds'\n"
        "lp2 = R.turan_max_edges(3, 7, 'loose-path-2')\n"
        "lp3 = R.turan_max_edges(3, 7, 'loose-path-3')\n"
        "assert (lp2.status, lp3.status) == ('exact', 'exact'), (lp2, lp3)\n"
        "h = lp3.extremal\n"
        "assert R.parse_hypergraph(R.serialize_hypergraph(h)).edges == h.edges\n"
        "lazy = [f'ramseylab.{m}' for m in R._LAZY]\n"
        "assert sorted(lazy) == ['ramseylab.cnf', 'ramseylab.constructions', 'ramseylab.exact',"
        " 'ramseylab.inequalities', 'ramseylab.machinery'], lazy\n"
        "loaded = [m for m in lazy if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "import ramseylab.cli\n"
        "assert {'ramseylab.cnf', 'ramseylab.constructions'} <= set(sys.modules)\n"
    )
    result = run_python(check)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("module", ["ramseylab", "ramseylab.cli"])
def test_import_loads_no_dataclasses_or_inspect(module):
    result = run_python(f"import {module}, sys\nloaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
                        "assert not loaded, loaded\n")
    assert result.returncode == 0, result.stderr


def test_star_import_binds_every_name():
    result = run_python("from ramseylab import *\nimport ramseylab\nassert all(n in globals() for n in ramseylab.__all__)\n")
    assert result.returncode == 0, result.stderr
    assert len(ramseylab.__all__) == 53


@pytest.mark.parametrize("module", sorted(ramseylab._LAZY))
def test_lazy_names_are_their_modules_objects(module):
    from importlib import import_module

    home = import_module(f"ramseylab.{module}")
    assert getattr(ramseylab, module) is home
    for name in ramseylab._LAZY[module]:
        assert getattr(ramseylab, name) is getattr(home, name)


def test_dir_lists_every_public_name():
    assert set(ramseylab.__all__) <= set(dir(ramseylab))
    assert {"cnf", "constructions", "machinery", "exact", "inequalities"} <= set(dir(ramseylab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ramseylab.no_such_name
    assert not hasattr(ramseylab, "no_such_name")


def test_submodules_by_attribute_and_by_from_import():
    result = run_python(
        "import ramseylab\nassert ramseylab.exact.integer_nth_root(27, 3) == (3, True)\n"
        "from ramseylab import inequalities\nassert inequalities.IneqRecord is ramseylab.IneqRecord\n"
    )
    assert result.returncode == 0, result.stderr


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
