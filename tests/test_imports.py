"""Every name a package module imports is read somewhere in that module, and
no package module draws unseeded randomness.

No linter runs on this repository, so these scans are the guards against dead
imports and against an unseeded ``default_rng()``, which would make the metric
digests vary from run to run.  ``__init__.py`` is skipped by the import scan:
its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "packsecagg"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def unseeded_rngs(source: str) -> list[str]:
    """Lines that call ``default_rng`` (bare or as an attribute) with no
    arguments, which seeds the generator from OS entropy."""
    return [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "default_rng"
        and not node.args
        and not node.keywords
    ]


def test_scan_sees_an_unseeded_rng():
    source = "np.random.default_rng()\ndefault_rng()\nnp.random.default_rng(7)\ndefault_rng(seed=1)\n"
    assert unseeded_rngs(source) == ["line 1", "line 2"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_seeds_every_rng(path):
    assert unseeded_rngs(path.read_text()) == []
