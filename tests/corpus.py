"""Replay of the CLI output corpus, shared by its test and its update script.

`data/corpus.json` holds the input files the corpus reads and one argv list
per entry.  An argv may name three directories by placeholder: ``{data}``
is this test data directory, ``{in}`` a directory holding the corpus's
input files and ``{out}`` an empty directory of the entry's own.  Each argv
runs through ``conicmaps.cli.main`` in this process, with help laid out 80
columns wide, and leaves one manifest entry: its exit code, the SHA-256 of
its stdout and stderr (with the directories written back as their
placeholders) and of every file it wrote into ``{out}``, or, where ``main``
raises, the exception's type name.  `data/corpus_manifest.json` holds the
entries, in the corpus's order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from conicmaps.cli import main

DATA = Path(__file__).resolve().parent / "data"
CORPUS = DATA / "corpus.json"
MANIFEST = DATA / "corpus_manifest.json"


def _sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def load_corpus() -> tuple[dict, list]:
    """(input file name -> text, argv lists) of the corpus."""
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    return corpus["inputs"], corpus["argvs"]


def load_manifest() -> list:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def run_entry(argv: list, inputs_dir: Path, out_dir: Path) -> dict:
    """The manifest entry of one argv; ``out_dir`` must be empty."""
    places = {"{data}": str(DATA), "{in}": str(inputs_dir), "{out}": str(out_dir)}
    actual = []
    for arg in argv:
        for name, path in places.items():
            arg = arg.replace(name, path)
        actual.append(arg)

    def masked(text: str) -> str:
        for name, path in places.items():
            text = text.replace(path, name)
        return text

    entry = {"argv": argv}
    stdout, stderr = io.StringIO(), io.StringIO()
    old_columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(actual)
            except SystemExit as exc:
                code = exc.code
    except Exception as exc:  # noqa: BLE001 - the type is the recorded outcome
        entry["raises"] = type(exc).__name__
        return entry
    finally:
        if old_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old_columns
    entry["exit"] = code
    entry["stdout"] = _sha256(masked(stdout.getvalue()))
    entry["stderr"] = _sha256(masked(stderr.getvalue()))
    entry["files"] = {
        path.relative_to(out_dir).as_posix(): _sha256(path.read_bytes())
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }
    return entry


def write_inputs(inputs_dir: Path) -> None:
    """Write the corpus's input files into ``inputs_dir``, its ``{in}``."""
    for name, text in load_corpus()[0].items():
        (inputs_dir / name).write_text(text, encoding="utf-8")


def replay() -> list:
    """The manifest entries of every argv of the corpus, in its order."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs_dir = Path(tmp) / "in"
        inputs_dir.mkdir()
        write_inputs(inputs_dir)
        entries = []
        for i, argv in enumerate(load_corpus()[1]):
            out_dir = Path(tmp) / f"out{i}"
            out_dir.mkdir()
            entries.append(run_entry(argv, inputs_dir, out_dir))
    return entries


OUTCOMES = ("exit", "stdout", "stderr", "files", "raises")


def changed_outcomes(old: dict, new: dict) -> list:
    """The names in ``OUTCOMES`` whose value differs between two entries, in
    that order; a name one entry lacks differs from one it has."""
    return [name for name in OUTCOMES if old.get(name) != new.get(name)]


def moved_line(old: dict, new: dict) -> str:
    """The line naming an entry whose outcome moved: its argv and its
    changed outcomes."""
    return f"moved  {json.dumps(new['argv'])}  ({', '.join(changed_outcomes(old, new))})"


def dumps_manifest(entries: list) -> str:
    """The manifest's text: one entry a line, keys sorted."""
    lines = [json.dumps(e, sort_keys=True) for e in entries]
    return "[\n" + ",\n".join(lines) + "\n]\n"
