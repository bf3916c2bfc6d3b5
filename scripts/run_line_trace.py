#!/usr/bin/env python3
"""Run tier-1 under a line tracer and list every line of src/aemle it never runs.

The executable lines of a module are the line numbers of every code object
compiled from it (co_lines), less the body of a top-level
`if __name__ == "__main__":`, which only the subprocess tests run.  The
tracer (sys.settrace, and threading.settrace for worker threads) is set
before the package is imported, and records each line an aemle frame runs.
Prints one `path:line: source` row per line tier-1 never ran, then a
summary; the exit code is 1 when any line is unrun or a test fails.  Extra
arguments go to pytest.  The tracer is the stdlib's (no coverage package);
it takes about twice tier-1's time.

    PYTHONPATH=src python scripts/run_line_trace.py
"""
import ast
import functools
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aemle"


def code_lines(code) -> set[int]:
    """Line numbers of `code` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= code_lines(const)
    return lines


def main_guard_lines(tree: ast.Module) -> set[int]:
    """The body lines of each top-level `if __name__ == "__main__":`."""
    return {line for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
            for line in range(node.body[0].lineno, node.body[-1].end_lineno + 1)}


def executable_lines(path: Path) -> set[int]:
    source = path.read_text(encoding="utf-8")
    lines = code_lines(compile(source, str(path), "exec"))
    return lines - main_guard_lines(ast.parse(source))


@functools.lru_cache(maxsize=None)
def in_package(filename: str) -> Path | None:
    path = Path(filename).resolve()
    return path if path.parent == PACKAGE else None


def main() -> int:
    ran: dict[Path, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[in_package(frame.f_code.co_filename)].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = in_package(frame.f_code.co_filename)
        if path is None:
            return None
        ran.setdefault(path, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *sys.argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        source = path.read_text(encoding="utf-8").splitlines()
        total += len(lines)
        for line in sorted(lines - ran.get(path, set())):
            unrun += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} executable lines of src/aemle never ran under tier-1")
    return 1 if unrun or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
