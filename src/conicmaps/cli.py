"""Command-line front end: optimize | table | curves | project | reproduce.

Every subcommand takes the band: --rho1/--rho2 (heights) or --lat1/--lat2
(latitudes, radians unless --degrees).  Each one parses only the options it
reads; ``SUBCOMMANDS`` holds each one's help, option table and handler.
A call whose first argument names a subcommand builds one flat parser with
that subcommand's options only; any other call builds the top-level parser,
which lists the subcommands and serves help and usage errors.

``optimize --samples N`` or ``--csv FILE`` implies --scan.  A kind is no
map of the band when a stretch is not positive somewhere on it: ``table``
and ``reproduce`` print it (``compare_all`` gives it no report) as
undefined, ``table --csv`` leaves it out, ``reproduce`` counts it missed,
and ``curves`` and ``project`` exit 2.

Exit codes: 0 success, 1 a reproduction target missed or undefined on the
band, 2 invalid parameters (including an option the subcommand does not
take), 3 unreadable/unparseable input file, 4 cannot write output.  All
numeric output is locale independent.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import projections
from .distortion import (
    _distortions_at,
    _downward_alpha,
    _require_positive,
    annulus_distortion,
    optimal_alpha_by_root,
    optimal_alpha_by_scan,
)
from .cone import second_intersection_height
from .errors import NoIntersection, ParseError, ValidationError
from .geodata import (
    CurveTable,
    SvgStyle,
    _write_text,
    graticule,
    parse_geojson_lines,
    project_polylines,
    render_svg,
    write_csv,
)

# stretch_at is not called here, but benchmarks/tracing.py wraps it in this
# namespace, so it stays imported.
from .projections import ProjectionParams, compare_all, make_profile, stretch_at  # noqa: F401
from .sphere import SphericalAnnulus, _check_band

# Heights of the canonical annulus: the band spanned by the historical
# Russian-Empire maps, bounded by the parallels at 47.5 and 62.5 degrees.
CANONICAL_RHO1 = 0.737277
CANONICAL_RHO2 = 0.887011

# Largest --samples of optimize and curves: a huge count would end in MemoryError.
MAX_SAMPLES = 1_000_000

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


def _degree_minutes(rad: float) -> str:
    total_min = math.degrees(rad) * 60.0
    deg = int(total_min // 60.0)
    minutes = f"{total_min - 60.0 * deg:04.1f}"
    if minutes == "60.0":  # the minutes rounded up to a whole degree
        deg, minutes = deg + 1, "00.0"
    return f"{deg}\N{DEGREE SIGN}{minutes}\N{PRIME}"


# Each option as (name, add_argument keywords), in the order help lists them.
# Every subcommand takes the band; a name without a leading "-" is a positional.
_BAND = (
    ("--rho1", dict(type=float,
                    help=f"height of the lower parallel (default: {CANONICAL_RHO1})")),
    ("--rho2", dict(type=float,
                    help=f"height of the upper parallel (default: {CANONICAL_RHO2})")),
    ("--lat1", dict(type=float, help="latitude of the lower parallel")),
    ("--lat2", dict(type=float, help="latitude of the upper parallel")),
    ("--degrees", dict(action="store_true", help="interpret --lat1/--lat2 (and project's "
                       "--alpha) as degrees instead of radians")),
)
_CSV = (("--csv", dict(help="CSV output file")),)
_SAMPLED = (("--samples", dict(type=int, help="sample count")),) + _CSV
_OPTIMIZE = _SAMPLED + (
    ("--scan", dict(action="store_true",
                    help="also emit the (sin alpha, distortion) curve as CSV")),
)
_PROJECT = (
    ("--alpha", dict(type=float, help="half-apex angle override (Lambert only)")),
    ("--kind", dict(choices=sorted(projections.COMPARISON_ORDER),
                    default=projections.KIND_LAMBERT, help="projection kind (default: lambert)")),
    ("--cut", dict(type=float, default=180.0, help="longitude (degrees) of the meridian the "
                   "cone is cut along (default: 180, the antimeridian)")),
    ("--out", dict(help="SVG output file (default: stdout)")),
    ("geojson", dict(nargs="?",
                     help="optional GeoJSON file with LineString/MultiLineString overlays")),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The flat parser of ``command``, or with None the top-level parser.

    A subcommand's parser reads the arguments after its name, and only that
    subcommand's options.  The top-level parser takes no options: it lists
    the subcommands with their help and reports a missing or unknown one.

    One loop adds the band's option table and then the subcommand's own.
    An option, -h first, goes in one argument group titled "options", as
    argparse's own would be; a name without a leading "-" is a positional
    and goes on the parser.  argparse checks the metavar of an argument
    added to a parser, not to a group, with a throwaway help formatter that
    reads the terminal size.  So a valid call builds no formatter unless the
    subcommand has a positional, and only help and usage errors read the
    terminal size.
    """
    if command is None:
        parser = argparse.ArgumentParser(
            prog="conicmaps",
            description="Conical projections of a spherical band and their distortion.",
        )
        sub = parser.add_subparsers(dest="command", required=True)
        for name, (help_text, _, _) in SUBCOMMANDS.items():
            sub.add_parser(name, help=help_text)
        return parser
    parser = argparse.ArgumentParser(prog=f"conicmaps {command}", add_help=False)
    options = parser.add_argument_group("options")
    options.add_argument(
        "-h", "--help", action="help", default=argparse.SUPPRESS,
        help="show this help message and exit",
    )
    for name, keywords in _BAND + SUBCOMMANDS[command][1]:
        (options if name.startswith("-") else parser).add_argument(name, **keywords)
    return parser


def _resolve(args: argparse.Namespace) -> None:
    """Replace the band options of ``args`` by the heights rho1 < rho2."""
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
    _check_band(rho1, rho2)
    limit = 90.0 if args.degrees else math.pi / 2.0
    for name, lat in (("lat1", args.lat1), ("lat2", args.lat2)):
        if lat is not None and not abs(lat) < limit:
            raise ValueError(f"invalid latitude: need |{name}| < {limit:g}, got {name}={lat:g}")
    args.rho1, args.rho2 = rho1, rho2


def scan_table(rho1: float, rho2: float, n: int = 2001) -> CurveTable:
    """Distortion of the conformal map at n evenly spaced a = sin(alpha) in (0, 1).

    Each row's distortion is evaluated at the a it prints, with the array
    kernel of :func:`annulus_distortion`; the band is checked by the caller.
    """
    a = (np.arange(n) + 1) / (n + 1)
    delta = _distortions_at(rho1, rho2, a, rho1)
    return CurveTable(("sin_alpha", "distortion"), np.column_stack((a, delta)))


def sigma_table(rho1: float, rho2: float, n: int = 1001) -> CurveTable:
    """Bi-Lipschitz constant of the six kinds at n evenly spaced heights."""
    profiles = list(projections._band_profiles(ProjectionParams(rho1, rho2)).values())
    rho = rho1 + (rho2 - rho1) * np.arange(n) / (n - 1)
    # The grid can round an ulp outside the band; take it onto the band's
    # edges, as stretch_at does.
    inside = np.minimum(np.maximum(rho, rho1), rho2)
    eps = np.array([math.acos(r) for r in inside.tolist()])
    columns = [rho]
    for profile in profiles:
        h_m, h_p = profile.stretches(eps)
        _require_positive(h_m, h_p)
        columns.append(np.maximum(np.maximum(h_m, h_p), np.maximum(1.0 / h_m, 1.0 / h_p)))
    names = ["rho"] + [f"sigma_{p.kind}" for p in profiles]
    return CurveTable(names, np.column_stack(columns))


def _samples(args: argparse.Namespace, default: int) -> int:
    if args.samples is not None and args.samples < 2:
        raise ValueError("--samples must be at least 2")
    if args.samples is not None and args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {MAX_SAMPLES}")
    return args.samples or default


def cmd_optimize(args: argparse.Namespace) -> int:
    n = _samples(args, 2001)
    alpha_root = _downward_alpha(args.rho1, args.rho2, optimal_alpha_by_root(args.rho1, args.rho2))
    alpha_scan = optimal_alpha_by_scan(args.rho1, args.rho2)
    delta_min = annulus_distortion(args.rho1, args.rho2, alpha_root, args.rho1)
    print(f"a0 = {math.sin(alpha_root):.10g}")
    print(f"alpha0 = {alpha_root:.10g} rad = {_degree_minutes(alpha_root)}")
    print(f"delta_min = {delta_min:.10g}")
    print(f"root/scan agreement = {abs(alpha_root - alpha_scan):.3g} rad")
    if args.scan or args.samples is not None or args.csv is not None:
        write_csv(scan_table(args.rho1, args.rho2, n),
                  sys.stdout if args.csv is None else args.csv)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    """Print a kind that is no map of the band (a stretch is not positive) as
    undefined, and leave it out of the CSV, whose kind_index names the rows."""
    reports = compare_all(ProjectionParams(args.rho1, args.rho2))
    print(f"{'kind':<22}{'distortion':>14}{'sup_stretch':>14}{'inf_stretch':>14}")
    rows = []
    for i, (kind, rep) in enumerate(reports):
        if rep is None:
            print(f"{kind:<22}{'undefined':>14}")
            continue
        delta, sup, inf = rep.delta, math.exp(rep.sup_log), math.exp(rep.inf_log)
        # A cell keeps a leading space however wide its value is.
        cells = "".join(f"{' ' + format(v, '.10f'):>14}" for v in (delta, sup, inf))
        print(f"{kind:<22}{cells}")
        rows.append((i, delta, sup, inf))
    if args.csv is not None:
        columns = ("kind_index", "distortion", "sup_stretch", "inf_stretch")
        write_csv(CurveTable(columns, rows), args.csv)
    return 0


def cmd_curves(args: argparse.Namespace) -> int:
    n = _samples(args, 1001)
    write_csv(sigma_table(args.rho1, args.rho2, n), sys.stdout if args.csv is None else args.csv)
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    if not math.isfinite(args.cut):
        raise ValueError(f"--cut must be a finite longitude, got {args.cut}")
    alpha = args.alpha
    if alpha is not None and not math.isfinite(alpha):
        raise ValueError(f"--alpha must be finite, got {alpha}")
    if alpha is not None and args.degrees:
        alpha = math.radians(alpha)
    cut = math.radians(args.cut)
    profile = make_profile(args.kind, ProjectionParams(args.rho1, args.rho2, alpha))
    _require_positive(*profile.candidate_stretches()[1:])
    annulus = SphericalAnnulus(args.rho1, args.rho2)
    grat = project_polylines(profile, graticule(10.0, 5.0, annulus), cut)
    groups = [(SvgStyle(stroke="#999999", stroke_width=0.0015), grat.paths)]
    if args.geojson is not None:
        try:
            with open(args.geojson, "r", encoding="utf-8-sig") as fh:
                parsed = parse_geojson_lines(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {args.geojson}: {exc}") from exc
        coast = project_polylines(profile, parsed.lines, cut)
        groups.append((SvgStyle(stroke="black", stroke_width=0.003), coast.paths))
    _write_text([render_svg(groups)], sys.stdout if args.out is None else args.out, "SVG")
    return 0


def _reproduction_rows(rho1: float, rho2: float) -> list[tuple[str, float, float | None, float]]:
    """(target, reference, computed or None where undefined, tolerance) rows."""
    profiles = projections._band_profiles(ProjectionParams(rho1, rho2))
    teichmuller = profiles[projections.KIND_TEICHMULLER].aux
    lambert_cone = profiles[projections.KIND_LAMBERT].cone
    alpha_root = lambert_cone.alpha
    alpha_scan = optimal_alpha_by_scan(rho1, rho2)
    delta_min = annulus_distortion(rho1, rho2, alpha_root, rho1)
    try:
        upper = second_intersection_height(lambert_cone, rho1)
    except NoIntersection:  # the band reaches above the Lambert cone's apex
        upper = None

    rows = [
        ("mod_sphere_annulus", teichmuller["mod_sphere"]),
        ("mod_cone_annulus", teichmuller["mod_cone"]),
        ("teichmuller_dilatation", teichmuller["dilatation"]),
        ("optimal_sin_alpha_root", math.sin(alpha_root)),
        ("optimal_sin_alpha_scan", math.sin(alpha_scan)),
        ("root_scan_agreement_rad", abs(alpha_root - alpha_scan)),
        ("min_distortion", delta_min),
        ("upper_intersection_height", upper),
    ]
    for kind, profile in profiles.items():
        report = projections._report(profile)
        rows.append((f"distortion {kind}", None if report is None else report.delta))
    return [
        (name, REPRODUCTION_TARGETS[name][0], value, REPRODUCTION_TARGETS[name][1])
        for name, value in rows
    ]


def cmd_reproduce(args: argparse.Namespace) -> int:
    rows = _reproduction_rows(args.rho1, args.rho2)
    width = max(len(r[0]) for r in rows)
    print(f"{'target':<{width}}  {'reference':>14}  {'computed':>18}  "
          f"{'abs_err':>10}  result")
    failures = 0
    for name, ref, value, tol in rows:
        if value is None:
            ok, cells = False, f"{'undefined':>18}  {'':>10}"
        else:
            err = abs(value - ref)
            ok, cells = err <= tol, f"{value:>18.12g}  {err:>10.3g}"
        failures += 0 if ok else 1
        print(f"{name:<{width}}  {ref:>14.10g}  {cells}  {'PASS' if ok else 'FAIL'}")
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


# name -> (help, options besides the band, handler)
SUBCOMMANDS = {
    "optimize": ("optimal half-apex angle and distortion", _OPTIMIZE, cmd_optimize),
    "table": ("distortion table of the six projections", _CSV, cmd_table),
    "curves": ("bi-Lipschitz curves of the six projections", _SAMPLED, cmd_curves),
    "project": ("render a projected map as SVG", _PROJECT, cmd_project),
    "reproduce": ("check all published reference values", (), cmd_reproduce),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    # With no subcommand, parsing always exits, with help or a usage error.
    args = build_parser(command).parse_args(argv[1:] if command else argv)
    try:
        _resolve(args)
        return SUBCOMMANDS[command][2](args)
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
