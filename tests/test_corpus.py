"""Every argv of the CLI output corpus gives the outcome its manifest records.

`data/corpus.json` runs every subcommand on the canonical band and on
narrow, near-pole, wide, upward-cone, above-apex and overflow bands,
`project` of all six kinds over the map fixture at four cuts, the CSV
writers at their default sample counts, every help screen, usage errors
and each documented error exit.  `corpus.py` explains the manifest.  After
a change that moves an output on purpose, `python scripts/update_corpus.py`
rewrites the manifest and prints the argv of every entry that moved, with
the outcomes that changed.

The digests hold for the CPU, Python and numpy they were taken on; another
CPU, another Python (whose argparse or json may word a message or lay out
help differently) or another numpy may round a last digit differently and
fail them.
"""

import corpus


def test_corpus_replays_its_manifest():
    expected = corpus.load_manifest()
    assert [e["argv"] for e in expected] == corpus.load_corpus()[1]
    moved = [
        (want["argv"], got)
        for want, got in zip(expected, corpus.replay())
        if got != want
    ]
    assert not moved, f"{len(moved)} entries moved, the first: {moved[0]}"


def test_changed_outcomes_names_what_moved():
    old = {"argv": ["table"], "exit": 2, "stdout": "a", "stderr": "b", "files": {}}
    new = {**old, "stderr": "c", "files": {"t.csv": "d"}}
    assert corpus.changed_outcomes(old, old) == []
    assert corpus.changed_outcomes(old, new) == ["stderr", "files"]
    raised = {"argv": ["table"], "raises": "OverflowError"}
    assert corpus.changed_outcomes(raised, old) == list(corpus.OUTCOMES)
