"""The benchmark's per-layer hooks still name functions that exist.

perfbench/tracing.py wraps chainfold functions by module and name.  A
rename or a move inside chainfold would make the matching per-layer
metric read 0 without any error, so every name it lists is checked
here.  The tables are read from the file's source, not imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tables():
    tables = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "KERNELS", "COUNTERS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


TABLES = _tables()


def _hooks():
    hooks = []
    for table in ("SPANS", "KERNELS"):
        hooks += [(table, module, function) for _, module, function in TABLES[table]]
    hooks += [("COUNTERS", module, function) for module, function, _, _ in TABLES["COUNTERS"]]
    return hooks


def test_all_three_tables_are_read():
    assert set(TABLES) == {"SPANS", "KERNELS", "COUNTERS"}
    assert all(TABLES.values())


@pytest.mark.parametrize("table,module,function", _hooks())
def test_hook_resolves(table, module, function):
    mod = importlib.import_module(f"chainfold.{module}")
    assert callable(getattr(mod, function, None)), f"{table}: chainfold.{module}.{function}"
