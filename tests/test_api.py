"""The top-level ``coldsim`` namespace holds exactly what the README and demos import."""

import ast
import re
from pathlib import Path

import coldsim

ROOT = Path(__file__).resolve().parent.parent


def top_level_imports(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "coldsim"
            and node.level == 0 for alias in node.names}


def test_readme_and_demo_imports_are_exported():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used = set()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        used |= top_level_imports(block)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= top_level_imports(demo.read_text(encoding="utf-8"))
    assert used == set(coldsim.__all__)
    assert all(hasattr(coldsim, name) for name in coldsim.__all__)
