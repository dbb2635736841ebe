"""Every name a package module imports is read somewhere in that module.

No linter runs on this repository, so this scan is the guard against dead
imports.  ``__init__.py`` is skipped: its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "packsecagg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nb()\n") == [
        "line 1: os",
        "line 2: d",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
