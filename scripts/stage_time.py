#!/usr/bin/env python3
"""Time the map stages of one or more `conicmaps` source trees, side by side.

For each `src/` directory given, a fresh interpreter imports `conicmaps`
from it and times `parse_geojson_lines`, `graticule`, `project_polylines`
and `render_svg` on the inputs of one `conicmaps project` call of the
`maps` benchmark workload: the seeded coastline of
`benchmarks/workloads.coastline(seed)` and the canonical band, Lambert
kind, cut at 180 degrees.  `project_polylines` is its two calls, graticule
and coastline.  A child times each stage in 3 timeit loops of the call
count `Timer.autorange` picks (at least 0.2 s of calls) and keeps the best.
The directories take turns, one fresh interpreter each, for 7 rounds, and
the best of the 21 loops of each stage is printed in milliseconds per call.
Nothing is written.  Run it from anywhere, e.g.
against a checkout of the parent commit:

    python scripts/stage_time.py /path/to/parent/src src [--seed 1]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
ROUNDS = 7

# Runs in the child: argv is (src directory, benchmarks directory, seed);
# prints {stage: seconds per call}.
CHILD = r"""
import json, math, sys, timeit
REPEAT = 3
sys.dont_write_bytecode = True  # leave no cache files under benchmarks/
sys.path[:0] = sys.argv[1:3]
from workloads import CANONICAL, coastline
from conicmaps.geodata import (
    SvgStyle, graticule, parse_geojson_lines, project_polylines, render_svg)
from conicmaps.projections import ProjectionParams, make_profile
from conicmaps.sphere import SphericalAnnulus

document = json.dumps(coastline(int(sys.argv[3])))
annulus = SphericalAnnulus(*CANONICAL)
profile = make_profile("lambert", ProjectionParams(*CANONICAL))
cut = math.radians(180.0)
grid, coast = graticule(10.0, 5.0, annulus), parse_geojson_lines(document).lines

def project():
    return (project_polylines(profile, grid, cut).paths,
            project_polylines(profile, coast, cut).paths)

grid_paths, coast_paths = project()
groups = [(SvgStyle(stroke="#999999", stroke_width=0.0015), grid_paths),
          (SvgStyle(stroke="black", stroke_width=0.003), coast_paths)]
stages = {
    "parse_geojson_lines": lambda: parse_geojson_lines(document),
    "graticule": lambda: graticule(10.0, 5.0, annulus),
    "project_polylines": project,
    "render_svg": lambda: render_svg(groups),
}
out = {}
for name, fn in stages.items():
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    out[name] = min(timer.repeat(REPEAT, number)) / number
print(json.dumps(out))
"""


def run_child(src: Path, seed: int) -> dict:
    res = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), str(BENCHMARKS), str(seed)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(res.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="+", type=Path, help="a src/ directory holding conicmaps")
    ap.add_argument("--seed", type=int, default=1, help="coastline seed (default: 1)")
    args = ap.parse_args(argv)
    for src in args.src:
        if not (src / "conicmaps" / "geodata.py").is_file():
            ap.error(f"no conicmaps sources under {src}")
    best = [{} for _ in args.src]
    for _ in range(ROUNDS):
        for times, src in zip(best, args.src):
            for stage, seconds in run_child(src, args.seed).items():
                times[stage] = min(times.get(stage, seconds), seconds)
    print(f"ms per call, best of {ROUNDS} alternating rounds of 3 loops, "
          f"coastline seed {args.seed}")
    for i, src in enumerate(args.src, 1):
        print(f"  [{i}] {src}")
    print(f"{'stage':<20}" + "".join(f"{f'[{i}]':>10}" for i in range(1, len(best) + 1)))
    for stage in best[0]:
        print(f"{stage:<20}" + "".join(f"{1e3 * times[stage]:>10.3f}" for times in best))
    return 0


if __name__ == "__main__":
    sys.exit(main())
