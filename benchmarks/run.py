"""Benchmark of the conicmaps CLI, driven in-process.

    python3 benchmarks/run.py --workload maps|bands|curves --seed N \
        --seconds S --trace 0|1

One process runs a closed loop with one client: it calls
`conicmaps.cli.main(argv)` with stdout captured in memory, and the next
operation starts only after the previous one returns.  Work is done in whole
rounds (see workloads.py).  Every output is checked outside the timed
interval (see checks.py).

--trace 0 prints the end-to-end metrics; fresh interpreters, started one at a
time and spread through the run, give the cold-start ones.  --trace 1
alternates untraced and traced rounds and prints the per-layer metrics
(see tracing.py).  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

# Fixed before numpy is imported, here and in every child interpreter.
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONUTF8": "1",
}
os.environ.update(FIXED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

FRESH_STARTS = 15
IMPORTTIME_STARTS = 3
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "latency_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "first_op_ms": "ms",
    "peak_rss_mb": "MB",
}

# name -> (reduced key, how it is reduced); see Runner.layer_metrics.
LAYER_METRICS = {
    "cli.build_parser_ms": ("cli.build_parser", "self_per_op"),
    "cli.self_ms": ("op", "self_per_op"),
    "geodata.graticule_ms": ("geodata.graticule", "self_per_op"),
    "geodata.parse_geojson_ms": ("geodata.parse_geojson_lines", "self_per_op"),
    "geodata.project_polylines_ms": ("geodata.project_polylines", "self_per_op"),
    "geodata.render_svg_ms": ("geodata.render_svg", "self_per_op"),
    "projections.profile_calls": ("projections.profile_calls", "count_per_op"),
    "projections.profile_elems": ("projections.profile_elems", "count_per_op"),
    "projections.stretch_at_us": ("projections.stretch_at", "self_per_call"),
    "projections.stretch_at_calls": ("projections.stretch_at", "calls_per_op"),
    "projections.make_profile_us": ("projections.make_profile", "self_per_call"),
    "projections.compare_all_ms": ("projections.compare_all.total", "self_per_op"),
    "distortion.profile_distortion_ms": ("distortion.profile_distortion", "self_per_op"),
    "distortion.optimal_alpha_by_root_us": ("distortion.optimal_alpha_by_root", "self_per_call"),
    "distortion.optimal_alpha_by_scan_us": ("distortion.optimal_alpha_by_scan", "self_per_call"),
    "distortion.annulus_distortion_us": ("distortion.annulus_distortion", "self_per_call"),
    "distortion.annulus_distortion_calls": ("distortion.annulus_distortion", "calls_per_op"),
    "conformal.lambert_chart_us": ("conformal.lambert_chart", "self_per_call"),
}
LAYER_UNITS = {"self_per_op": "ms", "self_per_call": "us",
               "count_per_op": "count", "calls_per_op": "count"}
IMPORT_METRICS = {"import.numpy_ms": "numpy", "import.conicmaps_ms": "conicmaps"}
TRACE_METRICS = {"trace.latency_ms": "ms", "trace.overhead_pct": "%", "trace.residual_pct": "%"}


def child_env() -> dict:
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(SRC)}
    env.update(FIXED_ENV)
    return env


def load_package():
    """Import conicmaps from this checkout's src/, never from elsewhere."""
    if not (SRC / "conicmaps" / "cli.py").is_file():
        raise SystemExit(f"error: no conicmaps sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import conicmaps
    import conicmaps.cli

    if Path(conicmaps.__file__).resolve().parent != SRC / "conicmaps":
        raise SystemExit(f"error: imported conicmaps from {conicmaps.__file__}")
    return conicmaps


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs and checks the operations of one workload round."""

    def __init__(self, package, workload: str, seed: int):
        self.package = package
        self.workload = workload
        self.seed = seed
        self.ops = workloads.build_round(workload, seed, OUT)
        self.verified = set()  # output digests that passed the full check
        self.expected = {}  # op index -> what a fresh interpreter must print
        self.problems = []
        self.attempted = self.failed = 0

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    # -- one operation ----------------------------------------------------

    def run_op(self, index: int, tracer: Tracer | None = None) -> tuple[int, bool]:
        """Time one operation, check it, return (ns, succeeded)."""
        op = self.ops[index]
        main = self.package.cli.main
        outputs, error = [], None
        with contextlib.redirect_stderr(io.StringIO()):
            if tracer is not None:
                tracer.begin(index, op.kind)
            start = perf_counter_ns()
            try:
                for argv in op.argvs:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        rc = main(argv)
                    outputs.append((rc, buf.getvalue()))
            except Exception as exc:  # counted; a known fault is expected here
                error = exc
            elapsed = perf_counter_ns() - start
            if tracer is not None:
                tracer.end()
        ok = self.verify(index, outputs, error)
        self.attempted += 1
        self.failed += not ok
        return elapsed, ok

    def verify(self, index: int, outputs: list, error: Exception | None) -> bool:
        op = self.ops[index]
        bad_rc = [rc for rc, _ in outputs if rc != 0]
        if error is not None or bad_rc:
            what = type(error).__name__ if error is not None else f"exit {bad_rc[0]}"
            self.expected.setdefault(index, {"outputs": None, "error": what})
            if what != op.expect_error:
                self.problem(f"{op.argvs}: unexpected failure {what}: {error}")
            return False
        if op.expect_error:
            self.problem(f"{op.argvs}: expected {op.expect_error}, got success")
        digests = [[rc, digest(text)] for rc, text in outputs]
        self.expected.setdefault(index, {"outputs": digests, "error": None})
        key = tuple(d for _, d in digests)
        if key not in self.verified:
            try:
                self.full_check(op, [text for _, text in outputs])
                self.verified.add(key)
            except checks.CheckFailed as exc:
                self.problem(f"{op.argvs}: {exc}")
        return True

    @staticmethod
    def full_check(op, texts: list) -> None:
        if op.kind == "project":
            checks.check_map(texts[0], op.map_kind, op.cut, *op.band)
        elif op.kind == "band":
            checks.check_band(texts, *op.band, op.band == workloads.CANONICAL)
        else:
            checks.check_curves(texts, *op.band, workloads.CURVES_SAMPLES,
                                workloads.SCAN_SAMPLES)

    def run_round(self, tracer: Tracer | None = None, on_op=None):
        """One round, each operation preceded by a calibration.

        Returns (ns of all ops, ns of succeeded ops, succeeded, speed scale).
        """
        gc.collect()
        total = ok_ns = ok_n = 0
        calibrations = []
        for index in range(len(self.ops)):
            calibrations.append(calibration.calibration_ns())
            ns, ok = self.run_op(index, tracer)
            total += ns
            if ok:
                ok_ns += ns
                ok_n += 1
            if on_op is not None:
                on_op(index, ok)
        return total, ok_ns, ok_n, calibration.scale(calibrations)

    # -- set-up -----------------------------------------------------------

    def check_reproduce(self) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.package.cli.main(["reproduce"])
        lines = buf.getvalue().splitlines()
        if rc != 0 or not lines or lines[-1] != "all targets PASS":
            self.problem(f"reproduce exited {rc}")

    def warm_up(self) -> None:
        """One unmeasured round, which also records the expected outputs."""
        self.check_reproduce()
        self.run_round()
        self.attempted = self.failed = 0

    # -- fresh interpreters -----------------------------------------------

    @staticmethod
    def run_child(argvs: list | None, flags=()) -> subprocess.CompletedProcess:
        proc = subprocess.run(
            [sys.executable, *flags, str(HERE / "child.py")],
            input=json.dumps(argvs), capture_output=True, text=True,
            env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: fresh interpreter failed:\n{proc.stderr}")
        return proc

    def fresh_start(self) -> dict:
        """Import the CLI and run the round's first operation in a new
        interpreter, as a one-shot CLI user would."""
        proc = self.run_child(self.ops[0].argvs)
        result = json.loads(proc.stdout.splitlines()[-1])
        if Path(result["module"]).resolve().parent != SRC / "conicmaps":
            self.problem(f"fresh interpreter imported {result['module']}")
        if result["result"] != self.expected[0]:
            self.problem(f"{self.ops[0].argvs}: fresh interpreter output differs")
        result["first_op_ms"] = result["op_ms"] * calibration.scale(result["calibrations"])
        return result

    def import_times(self) -> dict:
        """Self times of `-X importtime`, summed per top-level package."""
        runs = defaultdict(list)
        for _ in range(IMPORTTIME_STARTS):
            proc = self.run_child(None, ("-X", "importtime"))
            sums = defaultdict(int)
            for line in proc.stderr.splitlines():
                if not line.startswith("import time:") or "self [us]" in line:
                    continue
                self_us, _, name = line[len("import time:"):].split("|")
                sums[name.strip().split(".")[0]] += int(self_us)
            for metric, package in IMPORT_METRICS.items():
                runs[metric].append(sums[package] / 1e3)
        return {metric: median(values) for metric, values in runs.items()}

    # -- the two kinds of run ---------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        self.fresh_start()  # unmeasured: warms the file cache
        budget = seconds * 1e9
        timed = scaled = ok_total = 0
        round_means, raw_means, scales, fresh = [], [], [], []
        while timed < budget:
            if len(fresh) < FRESH_STARTS and timed >= len(fresh) * budget / FRESH_STARTS:
                fresh.append(self.fresh_start())
            total, ok_ns, ok_n, scale = self.run_round()
            timed += total
            scaled += total * scale
            ok_total += ok_n
            raw_means.append(ok_ns / ok_n)
            round_means.append(ok_ns / ok_n * scale)
            scales.append(scale)
        while len(fresh) < FRESH_STARTS:
            fresh.append(self.fresh_start())
        print(f"unscaled latency_ms {median(raw_means) / 1e6:.4f}, calibration "
              f"{calibration.REFERENCE_NS / 1e6 / median(scales):.4f} ms "
              f"(reference {calibration.REFERENCE_NS / 1e6} ms)", file=sys.stderr)
        # The import is not rescaled: reading, mapping and faulting in files
        # dominate it, and the calibration does not track that.
        return {
            "latency_ms": median(round_means) / 1e6,
            "ops_per_s": ok_total / (scaled / 1e9),
            "setup_s": median([f["import_s"] for f in fresh]),
            "first_op_ms": median([f["first_op_ms"] for f in fresh]),
            "peak_rss_mb": median([f["maxrss_kb"] for f in fresh]) / 1024.0,
        }

    def traced(self, seconds: float) -> dict:
        tracer = Tracer(self.package)
        budget = seconds * 1e9
        timed = 0
        plain_means, traced_means, per_round, costs = [], [], [], []
        first_spans = first_op = None
        while timed < budget or len(traced_means) < 2:
            if len(plain_means) <= len(traced_means):
                total, ok_ns, ok_n, scale = self.run_round()
                plain_means.append(ok_ns / ok_n * scale)
            else:
                sums = defaultdict(lambda: [0, 0])

                def collect(index, ok):
                    nonlocal first_spans, first_op
                    if first_spans is None:
                        first_spans, first_op = tracer.spans(), index
                    self.check_notes(index, tracer.notes)
                    tracer.notes.clear()
                    if ok:
                        for key, (value, calls) in tracer.reduce().items():
                            sums[key][0] += value
                            sums[key][1] += calls

                tracer.install()
                costs.append((tracer.span_inside_ns, tracer.span_outside_ns,
                              tracer.profile_call_ns))
                try:
                    total, ok_ns, ok_n, scale = self.run_round(tracer, collect)
                finally:
                    tracer.uninstall()
                traced_means.append(ok_ns / ok_n * scale)
                per_round.append((sums, ok_n, scale))
            timed += total
        metrics = self.import_times()
        metrics.update(self.layer_metrics(per_round))
        plain, traced = median(plain_means), median(traced_means)
        corrected = median(sums["op.total"][0] * scale / ok_n for sums, ok_n, scale in per_round)
        inside, outside, profile_call = (median(c) for c in zip(*costs))
        print(f"tracer cost (unscaled ns): span {inside + outside:.0f} ({inside:.0f} inside, "
              f"{outside:.0f} outside), counted profile call {profile_call:.0f}",
              file=sys.stderr)
        metrics["trace.latency_ms"] = traced / 1e6
        metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
        # What is left of the overhead after the spans' self times lose the
        # tracer's own cost, as measured on empty functions.
        metrics["trace.residual_pct"] = 100.0 * (corrected / plain - 1.0)
        self.write_spans(first_op, first_spans)
        return metrics

    @staticmethod
    def layer_metrics(per_round: list) -> dict:
        """Per-layer figures of each traced round; the median over rounds."""
        out = {}
        for metric, (key, how) in LAYER_METRICS.items():
            values = []
            for sums, ok_n, scale in per_round:
                value, calls = sums.get(key, (0, 0))
                if how == "self_per_op":
                    values.append(value * scale / ok_n / 1e6)
                elif how == "self_per_call":
                    values.append(value * scale / calls / 1e3 if calls else 0.0)
                elif how == "count_per_op":
                    values.append(value / ok_n)
                else:
                    values.append(calls / ok_n)
            out[metric] = median(values)
        return out

    def check_notes(self, index: int, notes: dict) -> None:
        """Counts the traced run saw against the ones the generator made."""
        if self.ops[index].kind != "project":
            return
        ignored = notes.get("geodata.parse_geojson_lines")
        dropped = notes.get("geodata.project_polylines")
        if ignored != [workloads.NON_LINE_FEATURES]:
            self.problem(f"ParsedLines.ignored was {ignored}, "
                         f"want [{workloads.NON_LINE_FEATURES}]")
        if dropped != [0, workloads.LINES_OUTSIDE_BAND]:
            self.problem(f"ProjectedPaths.dropped was {dropped}, "
                         f"want [0, {workloads.LINES_OUTSIDE_BAND}] (graticule, coastline)")

    def write_spans(self, index: int, spans: list) -> None:
        start = spans[0][2]
        for span in spans:
            span[2] -= start
            span[3] -= start
        doc = {
            "workload": self.workload,
            "seed": self.seed,
            "op": self.ops[index].argvs,
            "fields": ["name", "parent", "start_ns", "end_ns", "profile_calls"],
            "spans": spans,
        }
        path = OUT / f"trace-{self.workload}-{self.seed}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("maps", "bands", "curves"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    package = load_package()
    OUT.mkdir(exist_ok=True)
    runner = Runner(package, args.workload, args.seed)
    runner.warm_up()
    if args.trace:
        values = runner.traced(args.seconds)
        units = {m: LAYER_UNITS[how] for m, (_, how) in LAYER_METRICS.items()}
        units.update({m: "ms" for m in IMPORT_METRICS})
        units.update(TRACE_METRICS)
    else:
        values = runner.end_to_end(args.seconds)
        units = END_TO_END_UNITS
    for message in runner.problems:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
