"""Count the non-blank, non-comment, non-docstring lines of Python files.

    python tools/count_lines.py src

prints one line per file and the total last.  A docstring is the string
that opens a module, class or function body; every line it spans is left
out, as are blank lines and lines holding only a comment.
"""

import ast
import sys
from pathlib import Path


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if i not in docstrings and line.strip() and not line.lstrip().startswith("#"))


def main(root: str) -> int:
    total = 0
    for path in sorted(Path(root).rglob("*.py")):
        count = code_lines(path.read_text())
        print(f"{count:6d} {path}")
        total += count
    print(f"{total:6d} total")
    return total


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src")
