#!/usr/bin/env python3
"""Rewrite the CLI output corpus's manifest and print what moved.

Replays every argv of `tests/data/corpus.json` (see `tests/corpus.py`),
writes `tests/data/corpus_manifest.json` and prints, one a line, the argv
of every entry whose outcome differs from the manifest it replaced, marked
``moved``, ``new`` or ``gone``; a ``moved`` line ends with the outcomes
that changed, among exit, stdout, stderr, files and raises.  Takes no
options; run it from anywhere.  It replays the `conicmaps` of its own
checkout, whatever PYTHONPATH names:

    python scripts/update_corpus.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import corpus  # noqa: E402


def main() -> int:
    if len(sys.argv) > 1:
        print(f"usage: {sys.argv[0]} (takes no options)", file=sys.stderr)
        return 2
    old = {}
    if corpus.MANIFEST.exists():
        old = {json.dumps(e["argv"]): e for e in corpus.load_manifest()}
    entries = corpus.replay()
    corpus.MANIFEST.write_text(corpus.dumps_manifest(entries), encoding="utf-8")
    new = {json.dumps(e["argv"]): e for e in entries}
    for key, entry in new.items():
        if key not in old:
            print(f"new    {key}")
        elif old[key] != entry:
            print(corpus.moved_line(old[key], entry))
    for key in old.keys() - new.keys():
        print(f"gone   {key}")
    print(f"{len(entries)} entries written to {corpus.MANIFEST.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
