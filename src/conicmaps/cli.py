"""Command-line front end: optimize | table | curves | project | reproduce.

Exit codes: 0 success, 1 a reproduction target missed, 2 invalid parameters,
3 unreadable/unparseable input file, 4 cannot write output.  All numeric
output is locale independent.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import projections
from .distortion import (
    annulus_distortion,
    annulus_distortions,
    optimal_alpha_by_root,
    optimal_alpha_by_scan,
)
from .cone import ConicalAnnulus, cone_annulus_modulus, sphere_cone_intersections
from .errors import NonPositiveStretch, ParseError, ValidationError

# render_svg and stretch_at are not called here, but benchmarks/tracing.py
# wraps them in this namespace, so they stay imported.
from .geodata import (  # noqa: F401
    CurveTable,
    SvgStyle,
    graticule,
    parse_geojson_lines,
    project_polylines,
    render_svg,
    write_csv,
    write_svg,
)
from .projections import ProjectionParams, compare_all, make_profile, stretch_at  # noqa: F401
from .sphere import SphericalAnnulus, annulus_modulus

# Heights of the canonical annulus: the band spanned by the historical
# Russian-Empire maps, bounded by the parallels at 47.5 and 62.5 degrees.
CANONICAL_RHO1 = 0.737277
CANONICAL_RHO2 = 0.887011

# Published reference values reproduced by `conicmaps reproduce`, with the
# tolerance each one is gated at.
REPRODUCTION_TARGETS = {
    "mod_sphere_annulus": (0.0737271, 1e-6),
    "mod_cone_annulus": (0.0739411, 1e-6),
    "teichmuller_dilatation": (1.0029, 1e-4),
    "optimal_sin_alpha_root": (0.821529, 1e-5),
    "optimal_sin_alpha_scan": (0.821529, 1e-5),
    "root_scan_agreement_rad": (0.0, 1e-9),
    "min_distortion": (0.0086263354, 1e-5),
    "upper_intersection_height": (0.890819, 1e-4),
    "distortion central": (0.0171839, 1e-4),
    "distortion delisle": (0.00862621, 1e-4),
    "distortion delisle-equidistant": (0.00921812, 1e-3),
    "distortion orthogonal": (0.00866925, 1e-4),
    "distortion teichmuller": (0.0115244, 5e-4),
    "distortion lambert": (0.00862633, 1e-5),
}


@dataclass
class RunConfig:
    """Resolved parameters of one CLI invocation."""

    rho1: float
    rho2: float
    kind: str
    cut: float
    samples: int | None
    out: str | None
    csv: str | None
    alpha_override: float | None
    scan: bool
    geojson: str | None


def _degree_minutes(rad: float) -> str:
    total_min = math.degrees(rad) * 60.0
    deg = int(total_min // 60.0)
    minutes = total_min - 60.0 * deg
    return f"{deg}\N{DEGREE SIGN}{minutes:04.1f}\N{PRIME}"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--rho1",
        type=float,
        help=f"height of the lower parallel (default: {CANONICAL_RHO1})",
    )
    p.add_argument(
        "--rho2",
        type=float,
        help=f"height of the upper parallel (default: {CANONICAL_RHO2})",
    )
    p.add_argument("--lat1", type=float, help="latitude of the lower parallel")
    p.add_argument("--lat2", type=float, help="latitude of the upper parallel")
    p.add_argument(
        "--degrees",
        action="store_true",
        help="interpret --lat1/--lat2/--alpha as degrees instead of radians",
    )
    p.add_argument("--alpha", type=float, help="half-apex angle override (Lambert only)")
    p.add_argument(
        "--kind",
        choices=sorted(projections.COMPARISON_ORDER),
        default=projections.KIND_LAMBERT,
        help="projection kind (default: lambert)",
    )
    p.add_argument(
        "--cut",
        type=float,
        default=180.0,
        help="longitude (degrees) of the meridian the cone is cut along "
        "(default: 180, the antimeridian)",
    )
    p.add_argument("--samples", type=int, help="sample count where applicable")
    p.add_argument("--out", help="output file (SVG for `project`)")
    p.add_argument("--csv", help="CSV output file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conicmaps",
        description="Conical projections of a spherical band and their distortion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="optimal half-apex angle and distortion")
    _add_common(p)
    p.add_argument(
        "--scan",
        action="store_true",
        help="also emit the (sin alpha, distortion) curve as CSV",
    )

    p = sub.add_parser("table", help="distortion table of the six projections")
    _add_common(p)

    p = sub.add_parser("curves", help="bi-Lipschitz curves of the six projections")
    _add_common(p)

    p = sub.add_parser("project", help="render a projected map as SVG")
    _add_common(p)
    p.add_argument(
        "geojson",
        nargs="?",
        help="optional GeoJSON file with LineString/MultiLineString overlays",
    )

    p = sub.add_parser("reproduce", help="check all published reference values")
    _add_common(p)
    return parser


def _resolve(args: argparse.Namespace) -> RunConfig:
    if (args.rho1 is not None or args.rho2 is not None) and (
        args.lat1 is not None or args.lat2 is not None
    ):
        raise ValueError("give the band either as --rho1/--rho2 or --lat1/--lat2")

    def from_lat(lat):
        return math.sin(math.radians(lat) if args.degrees else lat)

    rho1 = args.rho1 if args.rho1 is not None else (
        from_lat(args.lat1) if args.lat1 is not None else CANONICAL_RHO1
    )
    rho2 = args.rho2 if args.rho2 is not None else (
        from_lat(args.lat2) if args.lat2 is not None else CANONICAL_RHO2
    )
    if not -1.0 < rho1 < rho2 < 1.0:
        raise ValueError(
            f"invalid band: need -1 < rho1 < rho2 < 1, got rho1={rho1:.6g}, "
            f"rho2={rho2:.6g}"
        )
    if not math.isfinite(args.cut):
        raise ValueError(f"--cut must be a finite longitude, got {args.cut}")
    alpha = args.alpha
    if alpha is not None and not math.isfinite(alpha):
        raise ValueError(f"--alpha must be finite, got {alpha}")
    if alpha is not None and args.degrees:
        alpha = math.radians(alpha)
    samples = args.samples
    if samples is not None and samples < 2:
        raise ValueError("--samples must be at least 2")
    return RunConfig(
        rho1=rho1,
        rho2=rho2,
        kind=args.kind,
        cut=math.radians(args.cut),
        samples=samples,
        out=args.out,
        csv=args.csv,
        alpha_override=alpha,
        scan=getattr(args, "scan", False),
        geojson=getattr(args, "geojson", None),
    )


def scan_table(rho1: float, rho2: float, n: int = 2001) -> CurveTable:
    """Distortion of the conformal map at n evenly spaced a = sin(alpha) in (0, 1)."""
    a = (np.arange(n) + 1) / (n + 1)
    alphas = [math.asin(v) for v in a.tolist()]
    delta = annulus_distortions(rho1, rho2, alphas, rho1)
    return CurveTable(("sin_alpha", "distortion"), np.column_stack((a, delta)))


def sigma_table(rho1: float, rho2: float, n: int = 1001) -> CurveTable:
    """Bi-Lipschitz constant of the six kinds at n evenly spaced heights."""
    params = ProjectionParams(rho1, rho2)
    profiles = [make_profile(kind, params) for kind in projections.COMPARISON_ORDER]
    rho = rho1 + (rho2 - rho1) * np.arange(n) / (n - 1)
    # A profile's bounds are cos(acos(rho)), which can sit an ulp inside the
    # band's edges; stretch_at clamps the same way.
    inside = np.minimum(np.maximum(rho, profiles[0].rho1), profiles[0].rho2)
    eps = [math.acos(r) for r in inside.tolist()]
    columns = [rho]
    for profile in profiles:
        h_m, h_p = profile.stretches(eps)
        if np.any(h_m <= 0.0) or np.any(h_p <= 0.0):
            raise NonPositiveStretch("stretches must be positive")
        columns.append(np.maximum(np.maximum(h_m, h_p), np.maximum(1.0 / h_m, 1.0 / h_p)))
    names = ["rho"] + [f"sigma_{p.kind}" for p in profiles]
    return CurveTable(names, np.column_stack(columns))


def cmd_optimize(cfg: RunConfig) -> int:
    alpha_root = optimal_alpha_by_root(cfg.rho1, cfg.rho2)
    alpha_scan = optimal_alpha_by_scan(cfg.rho1, cfg.rho2)
    delta_min = annulus_distortion(cfg.rho1, cfg.rho2, alpha_root, cfg.rho1)
    print(f"a0 = {math.sin(alpha_root):.10g}")
    print(f"alpha0 = {alpha_root:.10g} rad = {_degree_minutes(alpha_root)}")
    print(f"delta_min = {delta_min:.10g}")
    print(f"root/scan agreement = {abs(alpha_root - alpha_scan):.3g} rad")
    if cfg.scan:
        write_csv(scan_table(cfg.rho1, cfg.rho2, cfg.samples or 2001), cfg.csv or sys.stdout)
    return 0


def cmd_table(cfg: RunConfig) -> int:
    reports = compare_all(ProjectionParams(cfg.rho1, cfg.rho2))
    print(f"{'kind':<22}{'distortion':>14}{'sup_stretch':>14}{'inf_stretch':>14}")
    rows = []
    for kind, rep in reports:
        print(
            f"{kind:<22}{rep.delta:>14.10f}{math.exp(rep.sup_log):>14.10f}"
            f"{math.exp(rep.inf_log):>14.10f}"
        )
        rows.append((rep.delta, math.exp(rep.sup_log), math.exp(rep.inf_log)))
    if cfg.csv:
        table = CurveTable(
            ("kind_index", "distortion", "sup_stretch", "inf_stretch"),
            [(float(i),) + row for i, row in enumerate(rows)],
        )
        write_csv(table, cfg.csv)
    return 0


def cmd_curves(cfg: RunConfig) -> int:
    write_csv(sigma_table(cfg.rho1, cfg.rho2, cfg.samples or 1001), cfg.csv or sys.stdout)
    return 0


def cmd_project(cfg: RunConfig) -> int:
    params = ProjectionParams(cfg.rho1, cfg.rho2, cfg.alpha_override)
    profile = make_profile(cfg.kind, params)
    annulus = SphericalAnnulus(cfg.rho1, cfg.rho2)
    grat = project_polylines(profile, graticule(10.0, 5.0, annulus), cfg.cut)
    overlays = []
    if cfg.geojson:
        try:
            with open(cfg.geojson, "r", encoding="utf-8") as fh:
                parsed = parse_geojson_lines(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {cfg.geojson}: {exc}") from exc
        coast = project_polylines(profile, parsed.lines, cfg.cut)
        overlays.append((SvgStyle(stroke="black", stroke_width=0.003), coast.paths))
    write_svg(
        grat.paths,
        SvgStyle(stroke="#999999", stroke_width=0.0015),
        cfg.out or sys.stdout,
        overlays,
    )
    return 0


def _reproduction_rows(cfg: RunConfig) -> list[tuple[str, float, float, float]]:
    rho1, rho2 = cfg.rho1, cfg.rho2
    params = ProjectionParams(rho1, rho2)

    mod_a = annulus_modulus(SphericalAnnulus(rho1, rho2))
    profile_t = make_profile(projections.KIND_TEICHMULLER, params)
    cone = profile_t.cone
    s1 = math.sqrt(1.0 - rho1 * rho1) / cone.sin_alpha
    s2 = math.sqrt(1.0 - rho2 * rho2) / cone.sin_alpha
    mod_b = cone_annulus_modulus(ConicalAnnulus(cone, s2, s1))

    alpha_root = optimal_alpha_by_root(rho1, rho2)
    alpha_scan = optimal_alpha_by_scan(rho1, rho2)
    delta_min = annulus_distortion(rho1, rho2, alpha_root, rho1)
    lambert_cone = make_profile(projections.KIND_LAMBERT, params).cone
    _, upper = sphere_cone_intersections(lambert_cone)

    rows = [
        ("mod_sphere_annulus", mod_a),
        ("mod_cone_annulus", mod_b),
        ("teichmuller_dilatation", mod_b / mod_a),
        ("optimal_sin_alpha_root", math.sin(alpha_root)),
        ("optimal_sin_alpha_scan", math.sin(alpha_scan)),
        ("root_scan_agreement_rad", abs(alpha_root - alpha_scan)),
        ("min_distortion", delta_min),
        ("upper_intersection_height", upper),
    ]
    for kind, report in compare_all(params):
        rows.append((f"distortion {kind}", report.delta))
    return [
        (name, REPRODUCTION_TARGETS[name][0], value, REPRODUCTION_TARGETS[name][1])
        for name, value in rows
    ]


def cmd_reproduce(cfg: RunConfig) -> int:
    rows = _reproduction_rows(cfg)
    width = max(len(r[0]) for r in rows)
    print(f"{'target':<{width}}  {'reference':>14}  {'computed':>18}  "
          f"{'abs_err':>10}  result")
    failures = 0
    for name, ref, value, tol in rows:
        err = abs(value - ref)
        ok = err <= tol
        failures += 0 if ok else 1
        print(
            f"{name:<{width}}  {ref:>14.10g}  {value:>18.12g}  {err:>10.3g}  "
            f"{'PASS' if ok else 'FAIL'}"
        )
    print(
        "note: the root gives alpha0 = arcsin(0.8215294) = 0.9640883 rad "
        "= 55\N{DEGREE SIGN}14.3\N{PRIME}; the reference text prints the "
        "rounding 0.9640 rad = 55\N{DEGREE SIGN}14\N{PRIME}."
    )
    print(
        "note: the delisle-equidistant profile anchors the lower boundary "
        "circle (meridians isometric, s(eps1) = s1)."
    )
    if failures:
        print(f"{failures} target(s) FAILED")
        return 1
    print("all targets PASS")
    return 0


_COMMANDS = {
    "optimize": cmd_optimize,
    "table": cmd_table,
    "curves": cmd_curves,
    "project": cmd_project,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[args.command](cfg)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
