#!/usr/bin/env python3
"""Regenerate the numeric artifacts: distortion scan, stretch-curve
comparison, and example projected maps.

Writes CSV/SVG files into --outdir (default: out/) and prints the
six-projection distortion table to stdout.
"""

import argparse
import math
from pathlib import Path

from conicmaps import (
    SphericalAnnulus,
    SvgStyle,
    compare_all,
    graticule,
    make_profile,
    optimal_alpha_by_root,
    project_polylines,
    write_csv,
    write_svg,
)
from conicmaps.cli import CANONICAL_RHO1, CANONICAL_RHO2, scan_table, sigma_table
from conicmaps.projections import ProjectionParams


def write_map(kind, rho1, rho2, path):
    profile = make_profile(kind, ProjectionParams(rho1, rho2))
    grat = graticule(10.0, 5.0, SphericalAnnulus(rho1, rho2))
    paths = project_polylines(profile, grat, math.pi).paths
    write_svg(paths, SvgStyle(stroke="#444444", stroke_width=0.0015), path)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out", type=Path)
    ap.add_argument("--rho1", default=CANONICAL_RHO1, type=float)
    ap.add_argument("--rho2", default=CANONICAL_RHO2, type=float)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    write_csv(scan_table(args.rho1, args.rho2), args.outdir / "optimal_scan.csv")
    write_csv(sigma_table(args.rho1, args.rho2), args.outdir / "sigma_comparison.csv")
    for kind in ("lambert", "central"):
        write_map(kind, args.rho1, args.rho2, args.outdir / f"{kind}_map.svg")

    a0 = math.sin(optimal_alpha_by_root(args.rho1, args.rho2))
    print(f"optimal sin(alpha) = {a0:.10g}")
    print(f"{'kind':<22}{'distortion':>14}")
    for kind, report in compare_all(ProjectionParams(args.rho1, args.rho2)):
        print(f"{kind:<22}{report.delta:>14.10f}")
    print(f"wrote artifacts to {args.outdir}/")


if __name__ == "__main__":
    main()
