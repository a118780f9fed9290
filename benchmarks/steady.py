"""Steadiness check: run the benchmark twice on the same code and compare.

    python3 benchmarks/steady.py

First a smoke test of the benchmark's own checks: real outputs pass them
and mutated outputs fail them.  Then, for each workload in BENCHMARK.json,
ten pairs of end-to-end runs of `run_seconds` each (sides A and B, seeds
1 .. 10, alternating which side runs first) and one pair of traced runs on
seed 1.  For every end-to-end metric it prints each side's median and
quartiles, the spread (interquartile range over median) and whether the two
sides agree within the metric's bound in BENCHMARK.json.  The exact counts
of the traced pair must be equal, and so must the failed share of every run.
Exit code 0 when everything agrees.
"""

from __future__ import annotations

import io
import json
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = (
    "projections.profile_calls",
    "projections.profile_elems",
    "projections.stretch_at_calls",
    "distortion.annulus_distortion_calls",
)
RUNS = 10
FIRST_SEED = 1


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported wrong outputs:\n{proc.stderr}")
    return result


def smoke() -> None:
    """The checks accept the program's outputs and reject mutated ones."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import checks
    import workloads
    from conicmaps import cli

    def outputs(op):
        texts = []
        for argv in op.argvs:
            buf = io.StringIO()
            with redirect_stdout(buf):
                cli.main(argv)
            texts.append(buf.getvalue())
        return texts

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    band = workloads.bands_round(0)[0]
    curves = workloads.curves_round(0)[1]
    project = workloads.maps_round(0, out)[0]

    def band_check(texts):
        checks.check_band(texts, *band.band, canonical=True)

    def curves_check(texts):
        checks.check_curves(texts, *curves.band, workloads.CURVES_SAMPLES,
                            workloads.SCAN_SAMPLES)

    def map_check(texts):
        checks.check_map(texts[0], project.map_kind, project.cut, *project.band)

    def replace_line(text, prefix, new):
        return "\n".join(new if line.startswith(prefix) else line
                         for line in text.splitlines()) + "\n"

    def nudge_row(text, kind, delta):
        def nudge(line):
            name, value, *rest = line.split()
            return " ".join([name, f"{float(value) + delta:.10f}", *rest])
        return "\n".join(nudge(line) if line.startswith(kind + " ") else line
                         for line in text.splitlines()) + "\n"

    def edit_cell(text, row, column, edit):
        lines = text.splitlines()
        cells = lines[row].split(",")
        cells[column] = edit(cells[column])
        lines[row] = ",".join(cells)
        return "\n".join(lines) + "\n"

    cases = [
        (band_check, outputs(band), [
            ("a0 off its root", 0, lambda t: replace_line(t, "a0 = ", "a0 = 0.8215")),
            ("solvers disagree", 0, lambda t: replace_line(
                t, "root/scan", "root/scan agreement = 2e-09 rad")),
            ("lambert row off", 1, lambda t: nudge_row(t, "lambert", 1e-8)),
            ("negative row", 1, lambda t: nudge_row(t, "central", -1.0)),
        ]),
        (curves_check, outputs(curves), [
            ("sigma below 1", 0, lambda t: edit_cell(t, 5, 1, lambda c: "0.999")),
            ("lambert column rounded", 0, lambda t: edit_cell(t, 3, -1, lambda c: f"{float(c):.6f}")),
            ("an 18th digit", 0, lambda t: edit_cell(t, 3, 2, lambda c: c + "1" if "." in c else c + ".01")),
            ("scan minimum moved", 1, lambda t: edit_cell(t, -1, 1, lambda c: "0")),
        ]),
        (map_check, outputs(project), [
            ("not XML", 0, lambda t: t[:-10]),
            ("vertex outside the sector", 0, lambda t: t.replace('d="M ', 'd="M 9.0 9.0 L ', 1)),
            ("ray bent", 0, lambda t: t.replace(" L ", " L 0.00100000 -0.60000000 L ", 1)),
        ]),
    ]
    rejected = 0
    for check, texts, mutations in cases:
        check(texts)
        for label, which, mutate in mutations:
            bad = list(texts)
            bad[which] = mutate(bad[which])
            try:
                check(bad)
            except checks.CheckFailed:
                rejected += 1
                continue
            raise SystemExit(f"smoke: check {check.__name__} accepted output with {label}")
    print(f"smoke: the checks pass real outputs and reject {rejected} mutated ones")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    smoke()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    agree = True
    record = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        sides = {"A": [], "B": []}
        for i in range(RUNS):
            seed = FIRST_SEED + i
            for side in ("AB" if i % 2 == 0 else "BA"):
                sides[side].append(run_bench(workload, seed, seconds, 0))
        shares = {(r["failed"], r["attempted"]) for runs in sides.values() for r in runs}
        ratios = {f / a for f, a in shares}
        print(f"\n{workload}: failed share {sorted(ratios)} over {len(shares)} run lengths")
        if len(ratios) != 1:
            agree = False
        record["workloads"][workload] = {s: [r["metrics"] for r in runs]
                                         for s, runs in sides.items()}
        print(f"  {'metric':<14}{'side':>5}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for name, m in bounds.items():
            stats = {}
            for side, runs in sides.items():
                stats[side] = statistics.quantiles(
                    [r["metrics"][name]["value"] for r in runs], n=4)
            med_a, med_b = stats["A"][1], stats["B"][1]
            worse = (med_b - med_a) / med_a
            if m["better"] == "higher":
                worse = -worse
            ok = abs(worse) <= m["bound"]
            for side, (q1, med, q3) in stats.items():
                spread = (q3 - q1) / med
                if name != "setup_s" and spread > m["bound"]:
                    ok = False
                print(f"  {name:<14}{side:>5}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.2%}{m['bound']:>7.2f}  "
                      + (("agree" if ok else "DISAGREE") + f" (B vs A {worse:+.2%})"
                         if side == "B" else ""))
            agree &= ok
        traced = [run_bench(workload, FIRST_SEED, seconds, 1) for _ in "AB"]
        counts = [{c: t["metrics"][c]["value"] for c in EXACT_COUNTS} for t in traced]
        same = counts[0] == counts[1]
        agree &= same
        print(f"  traced counts {'repeat exactly' if same else 'DIFFER'}: {counts[0]}"
              + ("" if same else f" vs {counts[1]}"))
        overhead = [t["metrics"]["trace.overhead_pct"]["value"] for t in traced]
        print(f"  tracing overhead: {overhead[0]:+.1f}% and {overhead[1]:+.1f}% of latency_ms")
        record["workloads"][workload]["traced"] = [t["metrics"] for t in traced]
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(record, indent=1))
    print("\nall metrics agree within their bounds" if agree else "\nSOME METRICS DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
