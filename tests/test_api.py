"""The top-level ``coldsim`` namespace holds exactly what the README and demos
import, and importing the library loads numpy but not scipy."""

import ast
import os
import re
import subprocess
import sys
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


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the check reads sys.modules because
    # the test environment has it installed
    code = ("import sys, coldsim, coldsim.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
