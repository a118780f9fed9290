#!/usr/bin/env python3
"""List the statements of `src/conicmaps` that the tier-1 tests never run.

Runs the tier-1 suite (`pytest -q --continue-on-collection-errors` in the
repository root) in this process, with a `sys.settrace` and
`threading.settrace` hook that records the line events of frames whose code
lies under `src/conicmaps`.  A statement, found with `ast`, ran if a line
event fell on one of its lines; a compound statement's lines are its header
only, decorators included.  `global`, `nonlocal` and bare constants such as
docstrings run no code, and the body of `if TYPE_CHECKING:` never runs by
design; all are skipped.  Tests that start `python -m
conicmaps` in a subprocess are not traced, so a statement that only they
reach is listed.  Prints pytest's summary, then each never-run statement as
`module:line  source`, module by module.  Takes no options and writes
nothing; run it from anywhere:

    python scripts/src_coverage.py
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conicmaps"
SKIPPED = (ast.Global, ast.Nonlocal)


def statements(tree: ast.AST) -> dict:
    """{first line: the lines of its statement} of each statement that runs code.

    The body of ``if TYPE_CHECKING:`` never runs by design and is skipped.
    """
    found, unrun = {}, set()
    for node in ast.walk(tree):  # breadth first: an `if` comes before its body
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            unrun.update(id(inner) for stmt in node.body for inner in ast.walk(stmt))
        if (not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or id(node) in unrun
                or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        found[first] = range(first, last + 1)
    return found


def traced_run() -> tuple:
    """Run tier-1 under the hook: (pytest's exit code, {file name: lines run})."""
    prefix = str(PACKAGE) + os.sep
    seen = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest  # imported here, so that conicmaps is first imported under the hook

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, seen


def main() -> int:
    if len(sys.argv) > 1:
        print(f"usage: {sys.argv[0]} (takes no options)", file=sys.stderr)
        return 2
    code, seen = traced_run()
    print("\nstatements never run in process (subprocess CLI tests are not traced):")
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        ran = seen.get(str(path), set())
        for first, span in sorted(statements(ast.parse(text)).items()):
            if ran.isdisjoint(span):
                total += 1
                print(f"{path.name}:{first}  {lines[first - 1].strip()}")
    print(f"{total} statements never run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
