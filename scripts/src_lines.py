#!/usr/bin/env python3
"""Count the lines of `src/conicmaps`, split by what they hold.

For each module, and in total, prints the `wc -l` count and its split into
code, docstring, comment and blank lines.  A docstring line is any line of
a module, class or function docstring, blank ones included; `ast` finds
them.  A comment line holds a comment and nothing else; `tokenize` finds
them.  Every other non-blank line is code.  So a docstring that is deleted
lowers the docstring count only, not the code count.  Takes no options; run
it from anywhere:

    python scripts/src_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conicmaps"
COLUMNS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict:
    """The counts of one module's source, keyed by ``COLUMNS``."""
    docs = docstring_lines(ast.parse(text))
    comments = {
        tok.start[0]
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip()
    }
    counts = dict.fromkeys(COLUMNS, 0)
    counts["total"] = text.count("\n")
    for number, line in enumerate(text.splitlines(), 1):
        if number in docs:
            counts["docstring"] += 1
        elif number in comments:
            counts["comment"] += 1
        else:
            counts["code" if line.strip() else "blank"] += 1
    return counts


def main() -> int:
    if len(sys.argv) > 1:
        print(f"usage: {sys.argv[0]} (takes no options)", file=sys.stderr)
        return 2
    total = dict.fromkeys(COLUMNS, 0)
    print(f"{'module':<16}" + "".join(f"{c:>11}" for c in COLUMNS))
    for path in sorted(PACKAGE.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for c in COLUMNS:
            total[c] += counts[c]
        print(f"{path.name:<16}" + "".join(f"{counts[c]:>11}" for c in COLUMNS))
    print(f"{'total':<16}" + "".join(f"{total[c]:>11}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
