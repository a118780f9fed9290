"""Every argv of the CLI output corpus gives the outcome its manifest records.

The corpus is the one pin of what the CLI prints.  `data/corpus.json` runs
every subcommand on the canonical band and on narrow, near-pole, wide,
upward-cone, above-apex and overflow bands; `project` of all six kinds over
the map fixture at four cuts; the CSV writers at their default sample
counts and at the benchmark's, 12,001 scan points and 1,201 curve heights,
on the canonical, wide, equator and polar bands (the decimal writer takes a
scan 2,048 rows a pass, so only the 12,001-point scans take more than one);
every help screen, laid out 80 columns wide; usage errors and each
documented error exit.  `data/map_fixture.geojson` holds lines that cross
the cut meridian, a vertex at exactly +-180 next to its mirror (also as a
line's first segment), a segment that jumps over the whole band, a single
in-band vertex between two outside ones, a line that lies wholly outside
the band (dropped) and a Point (ignored).  `corpus.py` explains the
manifest.  Each argv is its own test case, named by the argv, so a run
names every entry that moved, with the outcomes that changed.  After a
change that moves an output on purpose, `python scripts/update_corpus.py`
rewrites the manifest and prints the same lines.

The digests hold for the CPU, Python and numpy they were taken on; another
CPU, another Python (whose argparse or json may word a message or lay out
help differently) or another numpy may round a last digit differently and
fail them.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus

ROOT = Path(__file__).resolve().parent.parent
ARGVS = corpus.load_corpus()[1]


@pytest.fixture(scope="module")
def manifest():
    return {json.dumps(e["argv"]): e for e in corpus.load_manifest()}


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("in")
    corpus.write_inputs(path)
    return path


def test_the_manifest_holds_the_corpus_argvs_in_order():
    assert [e["argv"] for e in corpus.load_manifest()] == ARGVS
    assert len({json.dumps(argv) for argv in ARGVS}) == len(ARGVS), "an argv repeats"


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_corpus_replays_its_manifest(argv, manifest, inputs_dir, tmp_path):
    """Each entry fails on its own, with the line `update_corpus.py` would
    print for it, so a run names every entry that moved."""
    key = json.dumps(argv)
    assert key in manifest, f"new    {key}"
    want = manifest[key]
    got = corpus.run_entry(argv, inputs_dir, tmp_path)
    assert got == want, corpus.moved_line(want, got)


def test_changed_outcomes_names_what_moved():
    old = {"argv": ["table"], "exit": 2, "stdout": "a", "stderr": "b", "files": {}}
    new = {**old, "stderr": "c", "files": {"t.csv": "d"}}
    assert corpus.changed_outcomes(old, old) == []
    assert corpus.changed_outcomes(old, new) == ["stderr", "files"]
    raised = {"argv": ["table"], "raises": "OverflowError"}
    assert corpus.changed_outcomes(raised, old) == list(corpus.OUTCOMES)
    assert corpus.moved_line(old, new) == 'moved  ["table"]  (stderr, files)'


def test_update_script_replays_its_own_checkout(tmp_path):
    """A copy of the script rewrites its copy's manifest with the same bytes
    although PYTHONPATH names another `conicmaps`, one that prints nothing."""
    no_cache = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=no_cache)
    shutil.copytree(ROOT / "tests" / "data", tmp_path / "tests" / "data")
    shutil.copy(ROOT / "tests" / "corpus.py", tmp_path / "tests")
    (tmp_path / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "update_corpus.py", tmp_path / "scripts")
    stub = tmp_path / "stub" / "conicmaps"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "cli.py").write_text("def main(argv=None):\n    return 0\n")
    manifest = tmp_path / "tests" / "data" / "corpus_manifest.json"
    before = manifest.read_bytes()
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "stub")}
    done = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "update_corpus.py")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""
    assert manifest.read_bytes() == before
