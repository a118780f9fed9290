#!/usr/bin/env python3
"""Regenerate the numeric artifacts: distortion scan, stretch-curve
comparison, and example projected maps.

Every artifact is written by a `conicmaps` subcommand, run in this process:
CSV/SVG files go into --outdir (default: out/), and the optimal angle and
the six-projection distortion table are printed to stdout.  The exit code
is that of the first subcommand that fails, else 0.
"""

import argparse
import sys
from pathlib import Path

from conicmaps import cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out", type=Path)
    ap.add_argument("--rho1", default=cli.CANONICAL_RHO1, type=float)
    ap.add_argument("--rho2", default=cli.CANONICAL_RHO2, type=float)
    args = ap.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)

    band = [f"--rho1={args.rho1!r}", f"--rho2={args.rho2!r}"]
    runs = [
        ["optimize", "--scan", "--csv", str(args.outdir / "optimal_scan.csv")],
        ["curves", "--csv", str(args.outdir / "sigma_comparison.csv")],
        ["table"],
    ]
    for kind in ("lambert", "central"):
        runs.append(["project", "--kind", kind, "--out", str(args.outdir / f"{kind}_map.svg")])
    for run in runs:
        code = cli.main(run + band)
        if code:
            return code
    print(f"wrote artifacts to {args.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
