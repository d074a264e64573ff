"""Report the lines of ``src/coldsim`` that the in-process tests never run.

Usage, from the repository root:

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]

Runs pytest in this process under a ``sys.settrace`` line tracer, also set
with ``threading.settrace`` for the threads that tests start, and limited
to frames of ``src/coldsim`` files.  Then prints each file's never-run
lines as ranges.  A line is executable when a statement starts on it and
the compiler gave it bytecode.  Code that a test runs in a subprocess is
not followed, so it reads as never run.  The script reports and does not
gate: it prints pytest's exit status and exits 0.  Its name keeps pytest
from collecting it.
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
    total = missed = 0
    print("\nnever run in-process, per file:")
    for path in sorted(hits):
        lines = executable_lines(Path(path))
        never = lines - hits[path]
        total, missed = total + len(lines), missed + len(never)
        if never:
            print(f"  {Path(path).name}: {ranges(never)}")
    print(f"{missed} of {total} executable lines never run in-process "
          f"(pytest exit status {status})")
    print("subprocess runs are not followed: code that a test runs in a "
          "child process reads as never run here")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
