"""No module imports a name it never uses, the package holds no code
that only the tests reach, and the CLI imports little.

A stdlib-only stand-in for a linter's unused-import rule, run over the
package, the bench and the tests.  A name counts as used when it appears
as a name anywhere in the module or as a string in ``__all__``.  Package
``__init__.py`` files, which re-export, are exempt, and so is an import
on a line marked ``# noqa: F401``, such as the names the bench's tracer
looks up in a module.

The reach rule, also by ``ast``: every package module is imported,
directly or through other modules, by ``__init__.py`` or ``cli.py``;
every top-level function and class is referenced from the package (as a
name, an attribute or an imported name) or looked up by the bench's
tracer; every name ``__init__.py`` exports is referenced from a package
module other than ``__init__``, looked up by the tracer or given a
reason in REACH_ALLOWED; and every method and property of a package
class, other than a dunder, is referenced from the package as an
attribute or an imported name, or read as an attribute by the tracer.

The layering rule: no package import is made inside a function, and
the module import graph has no cycle.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chainfold"
MODULES = sorted(
    path
    for folder in ("src/chainfold", "perfbench", "tests")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """'line: name' for each name the module imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line of its alias
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [f"{line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from math import pi, tau  # noqa: F401\n"
        "from json import (\n"
        "    dumps,\n"
        "    loads,  # noqa: F401\n"
        ")\n"
        "import os.path\n"
        "__all__ = ['dumps']\n"
        "print(sys.argv)\n"
    )
    assert unused_imports(source) == ["8: os"]


# public API that only the tests call today, each kept for a reason
REACH_ALLOWED = {
    ("equidecompose", "chart_from_json"): "the chart reader; the roadmap gives it a CLI caller",
    ("kinematics", "pose_placements"): "forward kinematics, which tests hold sample_motion to",
    ("kinematics", "interpolate"): "the public pose blend; sample_motion blends by the same "
    "helpers with the hinge turns computed once per motion",
    ("chain", "load_sample_shape"): "the library's one reader of the shipped glyph corpus",
    ("exact_geom", "apply_motion"): "the public exact motion map; charts map pieces by int matrices, "
    "and the verifiers move pieces in the tuple core",
}


# methods and properties that only the tests use, each kept for a reason
MEMBER_ALLOWED: dict[tuple[str, str, str], str] = {}


def _package_trees() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}


def import_graph(trees: dict) -> dict[str, set[str]]:
    """The package modules each package module imports, anywhere in it
    (the package imports its own modules as ``from .module import ...``)."""
    return {
        name: {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1}
        for name, tree in trees.items()
    }


def unreached_modules(trees: dict) -> list[str]:
    """Package modules that neither __init__ nor cli imports, even indirectly."""
    imports = import_graph(trees)
    reached, todo = set(), ["__init__", "cli"]
    while todo:
        name = todo.pop()
        if name in trees and name not in reached:
            reached.add(name)
            todo += imports[name]
    return sorted(set(trees) - reached)


def tracer_lookups() -> set[tuple[str, str]]:
    """(module, name) of each package function perfbench/tracing.py wraps."""
    from test_bench_hooks import _hooks

    return {(module, function) for _, module, function in _hooks()}


def tracer_attributes() -> set[str]:
    """The attribute names perfbench/tracing.py reads, such as piece.vertices."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _references(trees: dict) -> tuple[set[str], set[str]]:
    """(names read, attributes and imported names) that the package refers to."""
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                attributes.add(node.name)
    return names, attributes


def unreferenced_definitions(trees: dict) -> list[str]:
    """'module.name' for each top-level function and class that nothing in
    the package refers to and the tracer does not look up."""
    names, attributes = _references(trees)
    refs = names | attributes
    kept = tracer_lookups() | set(REACH_ALLOWED)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in refs and (module, node.name) not in kept
    )


def unreached_exports(trees: dict) -> list[str]:
    """'module.name' for each name __init__ imports from a package module
    that no other package module refers to, that the tracer does not look
    up and that REACH_ALLOWED does not hold."""
    names, attributes = _references({m: t for m, t in trees.items() if m != "__init__"})
    refs = names | attributes
    kept = tracer_lookups() | set(REACH_ALLOWED)
    return sorted(
        f"{node.module}.{alias.name}"
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in refs and (node.module, alias.name) not in kept
    )


def unreferenced_members(trees: dict, traced: set[str]) -> list[str]:
    """'module.Class.name' for each method and property of a top-level
    class, other than a dunder, that the package refers to neither as an
    attribute nor as an imported name, whose name is not in traced and
    that MEMBER_ALLOWED does not hold."""
    _, refs = _references(trees)
    return sorted(
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in refs | traced
        and (module, cls.name, node.name) not in MEMBER_ALLOWED
    )


def test_every_module_is_reached_from_the_package_or_the_cli():
    assert unreached_modules(_package_trees()) == []


def test_every_definition_has_a_package_caller():
    assert unreferenced_definitions(_package_trees()) == []


def test_every_export_has_a_package_caller_or_a_reason():
    assert unreached_exports(_package_trees()) == []


def test_every_method_and_property_has_a_package_reader():
    assert unreferenced_members(_package_trees(), tracer_attributes()) == []


def test_the_reach_rule_finds_test_only_code():
    trees = {
        "__init__": ast.parse("from .a import exported, f\n"),
        "cli": ast.parse("from .b import g\n"),
        "a": ast.parse(
            "from .c import h\ndef f(): return h()\ndef unused(): pass\ndef exported(): pass\n"
        ),
        "b": ast.parse("def g(): pass\nclass Unused: pass\n"),
        "c": ast.parse("def h(): pass\n"),
        "island": ast.parse("from .a import f\ndef i(): return f()\n"),
    }
    assert unreached_modules(trees) == ["island"]
    assert unreferenced_definitions(trees) == ["a.unused", "b.Unused", "island.i"]
    # __init__'s import alone does not reach a name; island's call reaches f
    assert unreached_exports(trees) == ["a.exported"]


def test_the_reach_rule_finds_test_only_members():
    trees = {
        "a": ast.parse("from .b import K\nK().read\nK.call()\n"),
        "b": ast.parse(
            "class K:\n"
            "    def __init__(self): pass\n"
            "    @property\n"
            "    def read(self): return self._helper()\n"
            "    @classmethod\n"
            "    def call(cls): pass\n"
            "    def _helper(self): pass\n"
            "    def traced(self): pass\n"
            "    def unused(self): pass\n"
            "    @property\n"
            "    def unread(self): pass\n"
            "def unused(): pass\n"  # a name, not an attribute: K.unused is still unread
            "unused()\n"
        ),
    }
    assert unreferenced_members(trees, {"traced"}) == ["b.K.unread", "b.K.unused"]


def function_level_imports(trees: dict) -> list[str]:
    """'module: line' of each package import made inside a function."""
    return sorted({
        f"{module}: {node.lineno}"
        for module, tree in trees.items()
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, ast.ImportFrom) and node.level > 0
    })


def modules_on_import_cycles(trees: dict) -> list[str]:
    """The modules left when those that import no module left are peeled
    off in turn: the modules on an import cycle or importing one."""
    left = import_graph(trees)
    while ready := [name for name, imported in left.items() if not imported & left.keys()]:
        for name in ready:
            del left[name]
    return sorted(left)


def test_the_package_is_layered():
    trees = _package_trees()
    assert function_level_imports(trees) == []
    assert modules_on_import_cycles(trees) == []
    # the kernels at the bottom import nothing from the package
    assert import_graph(trees)["exact_geom"] == import_graph(trees)["polyomino"] == set()


def test_the_layering_rule_finds_upward_imports():
    trees = {
        "a": ast.parse("from .b import g\ndef f():\n    from .c import h\n    return h()\n"),
        "b": ast.parse("def g(): pass\n"),
        "c": ast.parse("from .a import f\n"),
    }
    assert function_level_imports(trees) == ["a: 3"]
    assert modules_on_import_cycles(trees) == ["a", "c"]
    del trees["c"]
    assert modules_on_import_cycles(trees) == []


def test_cli_import_loads_no_heavy_stdlib_modules():
    # every chainfold command pays for this import first; -S keeps .pth
    # files in site-packages from importing some of these modules anyway
    code = "import sys, chainfold.cli; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "chainfold.cli" in loaded
    assert {"dataclasses", "inspect", "logging", "importlib.resources"}.isdisjoint(loaded)
