"""Source checks that need only the standard library: no linter is a dependency."""

import ast

import pytest

from . import ROOT

PACKAGE = ROOT / "src" / "antimagic"
SOURCES = sorted(
    path for folder in (PACKAGE, ROOT / "scripts", ROOT / "tests") for path in folder.glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in read)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Callable, Iterable as It\n"
        "from . import graphs as G\n"
        "def f(x: It) -> None:\n"
        "    G = os.path.join(x)\n"
    )
    assert unused_imports(source) == ["line 3: Callable", "line 4: G"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Where a package name may be read: the package, its scripts and the benchmark,
# not tests.  A name that only tests call is code no verb, script or benchmark runs.
READERS = sorted(
    path for folder in (PACKAGE, ROOT / "scripts", ROOT / "bench")
    for path in folder.glob("*.py") if not path.name.startswith("test_")
)


def definitions(source: str) -> list[str]:
    """A module's top-level functions and classes, and its classes' non-dunder methods."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found.extend(
                f"{node.name}.{item.name}" for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
    return found


def names_read(source: str) -> set[str]:
    """The names a module reads anywhere but in the body that defines them.

    A read is a loaded name, an attribute, or a string constant, since
    ``getattr`` and ``setattr`` take names as strings.  A name imported
    ``as`` an alias is read wherever the alias is.
    """
    tree = ast.parse(source)
    alias = {
        a.asname: a.name.rpartition(".")[2]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for a in node.names if a.asname
    }
    found = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = own | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        name = alias.get(name, name)
        if name not in own:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, frozenset())
    return found


def dead_names(package: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each definition in ``package`` that no reader reads.

    Names match by spelling alone, so a method counts as read wherever any
    attribute of that name is.
    """
    read = set().union(*map(names_read, readers))
    return [
        f"{module}.{name}" for module, source in package.items()
        for name in definitions(source) if name.rpartition(".")[2] not in read
    ]


def test_dead_names_are_found():
    package = (
        "def used(f): return f\n"
        "def helper(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class C:\n"
        "    def __init__(self): pass\n"
        "    def method(self): pass\n"
        "    def dead(self): return self.dead()\n"
        "def only_tested(): pass\n"
    )
    reader = (
        "from .a import C, helper as _h, used\n"
        "def main():\n"
        "    return getattr(C(), 'method'), used(_h)\n"
    )
    dead = dead_names({"a": package}, [package, reader])
    assert dead == ["a.recursive", "a.C.dead", "a.only_tested"]


def test_every_package_name_has_a_reader():
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_names(package, [path.read_text() for path in READERS]) == []


# module -> the package modules it imports, at module level or inside a
# function.  Text and graphs sit at the bottom, beside the formula ledger;
# then the verifier, the scheme-independent searcher and the report layer;
# then the three formula tables; then what needs all three.  The package's
# __init__ re-exports nothing, and only the CLI's grid-report verb reaches
# families.  conformance.scheme_labeling, which label and export call,
# imports the one formula table it is named by its module name, which this
# table cannot see.  So verify, sums, construct and search never load a
# formula table (tests/test_cli.py checks what each verb loads).
LAYERS = {
    "__init__": set(),
    "graphs": set(),
    "formula": set(),
    "labeling": {"graphs"},
    "search": {"graphs", "labeling"},
    "conformance": {"formula", "graphs", "labeling"},
    "wheel": {"conformance", "formula", "graphs"},
    "helm": {"conformance", "formula", "graphs"},
    "flower": {"conformance", "formula", "graphs", "helm"},
    "families": {
        "conformance", "flower", "formula", "graphs", "helm", "labeling", "search", "wheel",
    },
    "cli": {"conformance", "families", "formula", "graphs", "labeling", "search"},
}


def package_imports(source: str) -> set[str]:
    """The ``antimagic`` modules a package module imports, relatively or by full name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["antimagic" if node.level else "", node.module]))
            names = [f"{module}.{a.name}" for a in node.names] if module == "antimagic" else [module]
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("antimagic."))
    return found


def test_package_imports_are_found():
    source = (
        "import os\n"
        "from . import graphs, labeling as L\n"
        "from .formula import Variant\n"
        "from antimagic.search import Status\n"
        "import antimagic.cli\n"
        "from antimagic import wheel\n"
    )
    assert package_imports(source) == {"graphs", "labeling", "formula", "search", "cli", "wheel"}


def test_layers_name_every_package_module():
    assert sorted(LAYERS) == sorted(path.stem for path in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_import_layers(module):
    assert package_imports((PACKAGE / f"{module}.py").read_text()) == LAYERS[module]


def mutable_dataclasses(source: str) -> list[str]:
    """The classes decorated ``@dataclass`` without ``frozen=True``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            name = call.func if call else deco
            if not (isinstance(name, ast.Name) and name.id == "dataclass"):
                continue
            frozen = call is not None and any(
                k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
                for k in call.keywords
            )
            if not frozen:
                found.append(node.name)
    return found


def test_mutable_dataclasses_are_found():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\nclass A: pass\n"
        "@dataclass(order=True)\nclass B: pass\n"
        "@dataclass(frozen=False)\nclass C: pass\n"
        "@dataclass(frozen=True)\nclass D: pass\n"
    )
    assert mutable_dataclasses(source) == ["A", "B", "C"]


def test_every_package_dataclass_is_frozen():
    # reports, results and labelings are values: whoever builds one writes
    # every verdict in it.  SearchStats alone is mutable, because the search
    # counts into it in place as it runs.
    mutable = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in mutable_dataclasses(path.read_text())
    ]
    assert mutable == ["search.SearchStats"]
