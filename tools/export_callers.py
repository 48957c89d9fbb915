"""List each name in ``codebounds.__all__`` that nothing outside the tests refers to.

A reference is a ``Name`` or ``Attribute`` node in a file's syntax tree, or
a part of a dotted string constant such as ``"codes.min_distance"`` (the
span targets in ``bench/spans.py`` name what they wrap this way).  The files
searched are every ``src/codebounds`` module except ``__init__.py``, which
only re-exports, and every Python file under ``bench/`` whose name does not
start with ``test_``.  Files are only read.  ``__all__`` is read from the
syntax tree of ``__init__.py``, so nothing is imported.

Usage, from the repository root::

    python tools/export_callers.py

Prints each unreferenced name on its own line, then their count.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "codebounds"
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def exported() -> list:
    """The string list assigned to ``__all__`` in the package's ``__init__.py``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))


def searched() -> list:
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return modules + [p for p in sorted(ROOT.glob("bench/**/*.py"))
                      if not p.name.startswith("test_")]


def references(source: str) -> set:
    """Names, attributes and the parts of dotted string constants in one file."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            found.update(node.value.split("."))
    return found


def main() -> int:
    used = set().union(*(references(p.read_text(encoding="utf-8")) for p in searched()))
    unused = [name for name in exported() if name not in used]
    for name in unused:
        print(name)
    print(f"{len(unused)} exported names used only by tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
