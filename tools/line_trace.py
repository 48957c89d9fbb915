"""List the statements of ``src/codebounds`` that the test suite never runs.

Runs pytest in this process under ``sys.settrace`` (and ``threading.settrace``),
tracing lines only in files under ``src/codebounds``, then prints every
statement that no test executed, as ``path:line: source``, and their count.
Docstrings are not statements here.  A compound statement (``def``, ``if``,
``for``, ...) counts as run when any line of its header runs, decorators
included; a simple one when any of its lines runs.

Usage, from the repository root (extra arguments go to pytest)::

    python tools/line_trace.py [pytest args, default: tests]

Tests that run the program in a subprocess are not traced, so what only
they reach is listed.  It needs pytest and the standard library, not
coverage.py; tracing makes the suite several times slower.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "codebounds") + os.sep


def statement_lines(source: str) -> dict:
    """First line of each non-docstring statement -> the lines that show it ran."""
    tree = ast.parse(source)
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None}
    spans = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and id(node) not in docstrings:
            body = getattr(node, "body", None)
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            last = body[0].lineno - 1 if body else node.end_lineno
            spans[node.lineno] = range(first, max(first, last) + 1)
    return spans


def main(argv) -> int:
    executed = {}      # filename -> set of line numbers

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PACKAGE):
            return None
        executed.setdefault(name, set())
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or [os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for entry in sorted(os.listdir(PACKAGE)):
        if not entry.endswith(".py"):
            continue
        path = PACKAGE + entry
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        ran = executed.get(path, set())
        for lineno, span in sorted(statement_lines(source).items()):
            if ran.isdisjoint(span):
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{missed} statements never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
