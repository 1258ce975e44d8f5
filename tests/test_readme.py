"""The README's Python runs, and its public API list is __init__.py's."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


def test_public_api_list_names_exactly_the_exports():
    assert PYTHON_BLOCKS  # so the test above cannot pass by running nothing
    section = README.split("\n## Public API\n")[1].split("\n## ")[0]
    listed = [
        name
        for line in section.splitlines() if line.startswith("- `chainfold.")
        for name in re.findall(r"`(\w+)`", line.partition(":")[2])
    ]
    tree = ast.parse((ROOT / "src" / "chainfold" / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert sorted(listed) == sorted(exported)
