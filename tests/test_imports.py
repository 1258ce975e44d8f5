"""No module imports a name it never uses, and the CLI imports little.

A stdlib-only stand-in for a linter's unused-import rule, run over the
package, the bench and the tests.  A name counts as used when it appears
as a name anywhere in the module or as a string in ``__all__``.  Package
``__init__.py`` files, which re-export, are exempt, and so is an import
on a line marked ``# noqa: F401``, such as the names the bench's tracer
looks up in a module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
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


def test_cli_import_loads_no_heavy_stdlib_modules():
    # every chainfold command pays for this import first; -S keeps .pth
    # files in site-packages from importing some of these modules anyway
    code = "import sys, chainfold.cli; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "chainfold.cli" in loaded
    assert {"dataclasses", "inspect", "logging", "importlib.resources"}.isdisjoint(loaded)
