"""Every name a package module imports is read somewhere in that module, no
package module draws unseeded randomness, every defaulted parameter of the
experiment and cost entry points is set by some call in the package, every
defaulted field of ``ProtocolConfig`` is set by some call in the package, its
tests or its benchmark, and every function, class and method the package
defines is named somewhere.

No linter runs on this repository, so these scans are the guards against dead
imports, against an unseeded ``default_rng()``, which would make the metric
digests vary from run to run, against settings that only one value ever
reaches, which should be constants, and against definitions nothing uses.
``__init__.py`` is skipped by the import scan: its imports are re-exports.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "packsecagg"
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


# entry points whose defaulted parameters must each be set by some package call
SETTINGS = (
    "run_experiment",
    "protocol_config",
    "predict_comm",
    "sweep_comm",
    "sweep_comp",
    "measure_comm",
    "rs_decode",
)


# dataclasses whose defaulted fields must each be set by some call in the
# package, its tests or its benchmark
CONFIGS = ("ProtocolConfig",)


def unset_defaults(sources: list[str], names) -> list[str]:
    """``function.parameter`` for each defaulted parameter of a function in
    `names` that no call in `sources` passes, by keyword or by position, and
    ``function: no definition`` for a name that `sources` do not define.  A
    class in `names` is read as a dataclass: its parameters are its annotated
    fields in order, skipping ``ClassVar`` constants."""
    trees = [ast.parse(source) for source in sources]
    defaulted: dict[str, dict[str, int | None]] = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.FunctionDef) and node.name in names:
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = {p.arg: i for i, p in enumerate(positional) if i >= first}
            params.update((p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
            defaulted[node.name] = params
        elif isinstance(node, ast.ClassDef) and node.name in names:
            fields = [
                stmt
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and "ClassVar" not in ast.unparse(stmt.annotation)
            ]
            defaulted[node.name] = {f.target.id: i for i, f in enumerate(fields) if f.value is not None}
    passed: set[tuple[str, str]] = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        for param, index in defaulted.get(name, {}).items():
            if (index is not None and index < len(node.args)) or param in {k.arg for k in node.keywords}:
                passed.add((name, param))
    return sorted(
        [f"{name}.{param}" for name, params in defaulted.items() for param in params
         if (name, param) not in passed]
        + [f"{name}: no definition" for name in names if name not in defaulted]
    )


def test_scan_sees_a_setting_no_call_passes():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(x=0): pass\n"
        "f(0, 5)\n"
        "m.f(0, e=6)\n"
        "g()\n"
    )
    assert unset_defaults([source], ("f", "g", "h")) == ["f.c", "f.d", "g.x", "h: no definition"]
    assert unset_defaults([source, "g(1)\nf(0, 1, 2, d=3)\n"], ("f", "g")) == []


def test_scan_sees_a_config_field_no_call_passes():
    source = (
        "@dataclass\n"
        "class C:\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    k: ClassVar[int] = 5\n"
        "    c: str = 'x'\n"
        "    d: float = 2.0\n"
        "    def method(self, e=0): pass\n"
        "C(0, 2)\n"
        "C(a=0, **extra)\n"
    )
    assert unset_defaults([source], ("C",)) == ["C.c", "C.d"]
    assert unset_defaults([source, "C(0, 1, 'y')\nC(a=1, d=0.5)\n"], ("C",)) == []


def test_every_config_field_is_set_somewhere():
    sources = [p.read_text() for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unset_defaults(sources, CONFIGS) == []


def test_package_sets_every_defaulted_setting():
    assert unset_defaults([p.read_text() for p in SOURCES], SETTINGS) == []


def dead_definitions(defining: list[str], naming: list[str]) -> list[str]:
    """Functions, classes and methods defined in `defining` whose name no
    source in `naming` uses: as a name, an attribute, an imported name, or
    an identifier inside a string literal that is not a docstring.  Its own
    ``def`` or ``class`` line does not count, nor do comments; dunder
    methods, which Python calls implicitly, are skipped."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    used: set[str] = set()
    for source in naming:
        tree = ast.parse(source)
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, scopes) and node.body and isinstance(node.body[0], ast.Expr)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return sorted(
        node.name
        for source in defining
        for node in ast.walk(ast.parse(source))
        if isinstance(node, scopes[1:]) and not node.name.startswith("__") and node.name not in used
    )


def test_scan_sees_a_definition_nothing_names():
    module = '''
class Kept:
    def method(self): pass
    def __len__(self): return 0
class Gone:
    "Gone is named only in its own docstring."
def helper(): pass
def orphan(): pass  # orphan
Kept().method()
'''
    other = "from pkg import helper\nhooks = ('Kept.other',)\n"
    assert dead_definitions([module], [module, other]) == ["Gone", "orphan"]
    assert dead_definitions([module], [module, other, "x = 'orphan Gone'"]) == []


def test_package_names_every_definition():
    naming = [p.read_text() for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert dead_definitions([p.read_text() for p in SOURCES], naming) == []
