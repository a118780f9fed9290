#!/usr/bin/env python3
"""Measure what a fresh interpreter pays to import the `conicmaps` CLI.

Starts 15 fresh interpreters that each preload numpy, argparse and json (so
only `conicmaps` itself is timed), then time `import conicmaps.cli`, and
prints the median, minimum and maximum in milliseconds.  Then starts 3 more
under `-X importtime` and prints the median self time of each `conicmaps`
module.  One uncounted start first writes the bytecode cache, as an
installed package has one.  Takes no options; run it from anywhere:

    python scripts/import_time.py
"""

import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PRELOAD = "import numpy, argparse, json, time"
TIMED = "t = time.perf_counter(); import conicmaps.cli; print(time.perf_counter() - t)"
STARTS, IMPORTTIME_STARTS = 15, 3


def run(*flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return subprocess.run([sys.executable, *flags, "-c", f"{PRELOAD}; {TIMED}"],
                          env=env, capture_output=True, text=True, check=True)


def module_self_us(stderr: str) -> dict:
    """`conicmaps` module -> self time in microseconds, from `-X importtime`."""
    times = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "conicmaps" in line:
            self_us, _, name = line[len("import time:"):].split("|")
            times[name.strip()] = int(self_us)
    return times


def main() -> int:
    if len(sys.argv) > 1:
        print(f"usage: {sys.argv[0]} (takes no options)", file=sys.stderr)
        return 2
    run()
    ms = [1e3 * float(run().stdout) for _ in range(STARTS)]
    print(f"import conicmaps.cli, numpy/argparse/json preloaded, {STARTS} fresh starts: "
          f"median {statistics.median(ms):.2f} ms, min {min(ms):.2f}, max {max(ms):.2f}")
    runs = [module_self_us(run("-X", "importtime").stderr) for _ in range(IMPORTTIME_STARTS)]
    print(f"-X importtime self time, median of {IMPORTTIME_STARTS} starts:")
    for name in runs[0]:
        us = statistics.median(r.get(name, 0) for r in runs)
        print(f"  {name:<24} {us / 1e3:7.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
