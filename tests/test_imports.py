"""Every import in the package modules is used, and ``dbase dbase`` loads
only what its stream needs.

A stdlib stand-in for a linter's unused-import rule (F401).  ``__init__.py``
re-exports by design, ``from __future__`` imports are directives, and an
import whose line carries ``# noqa: F401`` is kept on purpose.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dbase

from conftest import EX1_MI, EX2_IB

MODULES = sorted(
    p for p in Path(dbase.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    source = "import json\nfrom os import path, sep  # keep\nprint(path)\n"
    assert unused_imports(source) == ["json (line 1)", "sep (line 2)"]


# Modules the D-base stream does not use: the record types are plain
# classes, annotations are never evaluated, and the CLI imports json and
# random only in the commands that need them.
NOT_ON_THE_STREAM_PATH = (
    "dataclasses", "inspect", "typing", "json", "random", "pathlib", "numpy",
)


def test_dbase_stream_loads_no_unused_module(tmp_path):
    ib = tmp_path / "ex2.ib"
    ib.write_text(EX2_IB)
    mi = tmp_path / "ex1.mi"
    mi.write_text(EX1_MI)
    code = (
        "import sys\n"
        "import dbase, dbase.cli\n"
        f"assert dbase.cli.main(['dbase', {str(ib)!r}]) == 0\n"
        f"assert dbase.cli.main(['dbase', {str(mi)!r}, '--from', 'mi']) == 0\n"
        f"names = {NOT_ON_THE_STREAM_PATH!r}\n"
        "print(' '.join(n for n in names if n in sys.modules), file=sys.stderr)\n"
    )
    src = str(Path(dbase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    # -S: site's own start-up imports (some .pth files load typing, random
    # and pathlib) would otherwise hide what dbase itself loads.
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 8 + 8  # eight rows from each route
    assert done.stderr.split() == []


# The paper-level reduced-base reference and the names only the tests and
# the bench's tracer use live in their modules, not in the package namespace.
DROPPED_FROM_NAMESPACE = (
    "ReducedBase", "build_reduced_base", "reduced_context", "min_reduce", "neighbors",
    "extreme_elements", "min_spanning_set", "d_generators_from_mi", "down_arrow",
)
# What the bench imports from the package namespace.
PERFBENCH_NAMES = (
    "ClosureContext", "GroundSet", "ImplicationalBase", "SetFamily", "binary_part",
    "gen_lower_bounded_instance", "is_d_generator", "is_standard",
    "iter_d_base_from_mi", "meet_irreducibles", "random_cnf",
)


@pytest.mark.parametrize("name", DROPPED_FROM_NAMESPACE)
def test_reference_and_test_only_names_are_not_exported(name):
    assert not hasattr(dbase, name)


def test_every_exported_name_resolves():
    for name in dbase.__all__:
        assert hasattr(dbase, name), name


def test_names_the_bench_imports_are_exported():
    bench = Path(dbase.__file__).resolve().parents[2] / "perfbench"
    imported = set()
    for path in bench.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "dbase":
                imported.update(alias.name for alias in node.names)
    assert imported <= set(PERFBENCH_NAMES)
    for name in PERFBENCH_NAMES:
        assert name in dbase.__all__ and hasattr(dbase, name), name
