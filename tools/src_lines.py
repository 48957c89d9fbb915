"""Count the lines of each ``src/codebounds`` module: total, code and
docstring, beside the time to compile its source.

Code lines are the lines that hold some token other than a comment: blank
lines, comment-only lines and docstring lines are not code.  A docstring is
the string that opens a module, class or function body.  The compile time is
the least of several ``compile()`` calls of the module's source, in ms: what
a fresh interpreter pays per module when no bytecode is cached (as with
``PYTHONDONTWRITEBYTECODE=1``).  Prints one row per module, then the totals.

Usage, from the repository root::

    python tools/src_lines.py [REV]

With REV (any git revision) the modules are read from that commit through
``git show``; without it, from the working tree.  With REV it then prints
each module's line deltas from REV to the working tree, and the total
deltas: a change's net ``src/`` delta in one command.  A module on one side
only counts as zero lines on the other.
"""

import ast
import io
import os
import subprocess
import sys
import timeit
import tokenize
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "src/codebounds"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def count(source: str) -> tuple:
    """(total, code, docstring) line counts of one module's source."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring), len(docstring)


def compile_ms(source: str, name: str) -> float:
    """The least of seven ``compile()`` times of one module's source, in ms."""
    return 1e3 * min(timeit.repeat(lambda: compile(source, name, "exec"), number=1, repeat=7))


def git(*args) -> str:
    """git's stdout; exits with git's error message when git fails."""
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        sys.exit(done.stderr.strip())
    return done.stdout


def modules(rev=None) -> dict:
    """Module file name -> source, at REV or in the working tree."""
    if rev is None:
        folder = Path(ROOT, PACKAGE)
        return {p.name: p.read_text(encoding="utf-8") for p in sorted(folder.glob("*.py"))}
    names = git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {n: git("show", f"{rev}:{PACKAGE}/{n}") for n in sorted(names) if n.endswith(".py")}


def with_total(rows: list) -> list:
    """The rows, then a "total" row of their column sums."""
    return rows + [("total", *(sum(column) for column in zip(*(row[1:] for row in rows))))]


def deltas(before: dict, after: dict) -> list:
    """(module, total, code, doc) line deltas from the sources ``before`` to
    ``after``, one row per module on either side; a missing module is the
    empty source, which counts (0, 0, 0)."""
    return [(name, *(b - a for a, b in zip(count(before.get(name, "")),
                                            count(after.get(name, "")))))
            for name in sorted(before.keys() | after.keys())]


def main(argv) -> int:
    sources = modules(*argv[:1])
    rows = with_total([(name, *count(source), compile_ms(source, name))
                       for name, source in sources.items()])
    print(f"{'module':<18}{'total':>7}{'code':>7}{'doc':>7}{'compile_ms':>12}")
    for name, total, code, doc, ms in rows:
        print(f"{name:<18}{total:>7}{code:>7}{doc:>7}{ms:>12.2f}")
    if argv:
        print(f"\ndelta from {argv[0]} to the working tree")
        print(f"{'module':<18}{'total':>7}{'code':>7}{'doc':>7}")
        for name, total, code, doc in with_total(deltas(sources, modules())):
            print(f"{name:<18}{total:>+7}{code:>+7}{doc:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
