"""Count the lines of the ``simphom`` package, per module and in total.

For each ``src/simphom/*.py`` it prints the total line count and the
count of code lines: the lines outside docstrings, comments and blank
lines.  A docstring is the first statement of a module, class or function
when that statement is a string; all its lines are left out.  A comment
line is one whose first non-blank character is ``#``.

Run from anywhere with ``python tools/count_src_lines.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "simphom"


def docstring_lines(tree):
    """The line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path):
    """``(total, code)`` line counts of one module."""
    text = path.read_text()
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), code


def main():
    total = code = 0
    print("%-16s %6s %6s" % ("module", "lines", "code"))
    for path in sorted(PACKAGE.glob("*.py")):
        lines, kept = count(path)
        total += lines
        code += kept
        print("%-16s %6d %6d" % (path.name, lines, kept))
    print("%-16s %6d %6d" % ("total", total, code))


if __name__ == "__main__":
    main()
