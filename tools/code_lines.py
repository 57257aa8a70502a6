"""Count the code lines of the rabivar package.

A code line is a non-blank line of ``src/rabivar/*.py`` that is neither a
comment nor part of a module, class or function docstring.  It prints one
``<module>.py <lines>`` line per module, then the total alone on the last
line.  Run from any directory:

    python tools/code_lines.py          # src/rabivar of this checkout
    python tools/code_lines.py DIR      # the *.py files of DIR, e.g. another checkout's package
"""

from __future__ import annotations

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "rabivar")

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and number not in docstrings
    )


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    directory = args[0] if args else PACKAGE
    total = 0
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                lines = code_lines(fh.read())
            print(name, lines)
            total += lines
    print(total)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
