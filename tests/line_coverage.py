"""Gate on the lines of ``src/coldsim`` that the in-process tests never run.

Usage, from the repository root:

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]

Runs pytest in this process under a ``sys.settrace`` line tracer, also set
with ``threading.settrace`` for the threads that tests start, and limited
to frames of ``src/coldsim`` files.  Then prints each file's never-run
lines as ranges.  A line is executable when a statement starts on it and
the compiler gave it bytecode.  Code that a test runs in a subprocess is
not followed, so it reads as never run: ``SUBPROCESS_ONLY`` names those
blocks, and their lines are printed apart.  Exits 1 when pytest fails,
when any other line is never run, or when an allow-list entry names no
block; else 0.  Its name keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coldsim"

# Blocks that only subprocess tests run, each named by its file, the
# qualified name of the function holding it ("" at module level) and the
# source text of its header line.  Every line in the block's body is allowed.
SUBPROCESS_ONLY = [
    # proxy and tunnel set-up: the proxy tests run their clients in a child
    # process whose environment names the proxy
    ("content.py", "HttpSession.__init__",
     "if proxy and not proxy_bypass(parts.netloc):"),
    ("content.py", "HttpSession._connection", "if self._tunnel is not None:"),
    # the module entry point: the tests call main() in process, and run
    # ``python -m coldsim.cli`` only in a child process
    ("cli.py", "", 'if __name__ == "__main__":'),
]


def executable_lines(path: Path) -> set[int]:
    """Lines of ``path`` that start a statement and carry bytecode."""
    source = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    with_code, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        with_code.update(line for _, _, line in code.co_lines()
                         if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return starts & with_code


def block_lines(path: Path, qualname: str, header: str) -> set[int]:
    """The lines in the bodies of the compound statements of ``path``,
    inside function ``qualname``, whose first line reads ``header``."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    found: set[int] = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            body = getattr(child, "body", None)
            if (scope == qualname and isinstance(child, ast.stmt) and body
                    and text[child.lineno - 1].strip() == header):
                found.update(range(body[0].lineno, body[-1].end_lineno + 1))
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def ranges(lines) -> str:
    """Sorted line numbers as ``a-b`` runs joined by commas."""
    runs: list[list[int]] = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, per traced file, the lines run."""
    hits = {os.path.realpath(p): set() for p in SRC.glob("*.py")}
    by_name: dict[str, set[int] | None] = {}   # co_filename: its hit set

    def on_line(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = hits.get(os.path.realpath(name))
        return on_line if by_name[name] is not None else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    status, hits = run_traced(argv)
    allowed: dict[str, set[int]] = {}
    stale = []
    for name, qualname, header in SUBPROCESS_ONLY:
        lines = block_lines(SRC / name, qualname, header)
        if not lines:
            stale.append(f"{name}: {qualname or '<module>'}: {header}")
        allowed.setdefault(name, set()).update(lines)
    total = missed = 0
    unexpected, subprocess_only = [], []
    for path in sorted(hits):
        name = Path(path).name
        lines = executable_lines(Path(path))
        never = lines - hits[path]
        total, missed = total + len(lines), missed + len(never)
        ok = allowed.get(name, set())
        if never - ok:
            unexpected.append(f"  {name}: {ranges(never - ok)}")
        if never & ok:
            subprocess_only.append(f"  {name}: {ranges(never & ok)}")
    print("\nnever run in-process, per file:")
    print("\n".join(unexpected) or "  none")
    print("never run in-process, allowed as run only by subprocess tests:")
    print("\n".join(subprocess_only) or "  none")
    for entry in stale:
        print(f"allow-list entry names no block: {entry}")
    print(f"{missed} of {total} executable lines never run in-process "
          f"(pytest exit status {status})")
    return int(status != 0 or bool(unexpected) or bool(stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
