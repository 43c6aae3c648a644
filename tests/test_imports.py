"""Every import in the package modules is used.

A stdlib stand-in for a linter's unused-import rule (F401).  ``__init__.py``
re-exports by design, ``from __future__`` imports are directives, and an
import whose line carries ``# noqa: F401`` is kept on purpose.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import dbase

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
