"""The array-valued evaluation paths agree with the scalar ones they replace,
and the CLI maps bad input and unwritable output to their exit codes."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import re
import traceback

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from conicmaps import (
    CurveTable,
    GeoPolyline,
    SphericalAnnulus,
    SphericalPoint,
    SvgStyle,
    annulus_distortion,
    graticule,
    log_squared_stretch,
    make_profile,
    optimal_alpha_by_root,
    project_point,
    project_polylines,
    render_svg,
    stretch_at,
    write_csv,
)
from conicmaps.cli import SUBCOMMANDS, build_parser, main, sigma_table
from conicmaps.distortion import _distortion_in_a, _distortions_at
from conicmaps.errors import ValidationError
from conicmaps.geodata import Graticule
from conicmaps.projections import COMPARISON_ORDER, ProjectionParams
from conftest import RHO1, RHO2

BANDS = [(RHO1, RHO2), (-0.3, 0.9), (0.02, 0.25), (0.93, 0.95)]


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("kind", COMPARISON_ORDER)
def test_stretches_match_stretch_at(kind, band):
    profile = make_profile(kind, ProjectionParams(*band))
    rho = np.linspace(profile.rho1, profile.rho2, 97)
    h_m, h_p = profile.stretches(np.arccos(rho))
    for i, r in enumerate(rho.tolist()):
        sample = stretch_at(profile, r)
        assert h_m[i] == pytest.approx(sample.h_meridian, rel=1e-14)
        assert h_p[i] == pytest.approx(sample.h_parallel, rel=1e-14)


@pytest.mark.parametrize("band", BANDS)
def test_sigma_table_matches_stretch_at(band):
    table = sigma_table(*band, n=41)
    params = ProjectionParams(*band)
    profiles = [make_profile(kind, params) for kind in COMPARISON_ORDER]
    assert table.columns == ("rho",) + tuple(f"sigma_{k}" for k in COMPARISON_ORDER)
    for i, row in enumerate(table.rows):
        # the rho column is computed exactly as the scalar loop did
        assert row[0] == band[0] + (band[1] - band[0]) * i / 40
        for profile, sigma in zip(profiles, row[1:]):
            assert sigma == pytest.approx(stretch_at(profile, row[0]).sigma, rel=1e-14)


def _scalar_distortion(rho1, rho2, alpha, rho0):
    """annulus_distortion through the checked log_squared_stretch."""
    return _scalar_distortion_at(rho1, rho2, math.sin(alpha), rho0)


def _scalar_distortion_at(rho1, rho2, a, rho0):
    """The same at a = sin(alpha) itself."""
    f1 = log_squared_stretch(rho1, a, rho0)
    f2 = log_squared_stretch(rho2, a, rho0)
    if rho1 <= a <= rho2:
        inf = log_squared_stretch(a, a, rho0)
    else:
        inf = f1 if a < rho1 else f2
    return 0.5 * (max(f1, f2) - inf)


@pytest.mark.parametrize("band", BANDS)
def test_scan_csv_equals_scalar_loop_bytes(band, tmp_path):
    n = 501
    path = tmp_path / "scan.csv"
    argv = ["optimize", "--scan", f"--samples={n}", "--csv", str(path)]
    assert main(argv + [f"--rho1={band[0]!r}", f"--rho2={band[1]!r}"]) == 0
    lines = ["sin_alpha,distortion"]
    for i in range(n):
        a = (i + 1) / (n + 1)
        delta = _scalar_distortion_at(band[0], band[1], a, band[0])
        lines.append(f"{format(a, '.17g')},{format(delta, '.17g')}")
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


# Bands down to 1e-10 wide and within 1e-8 of the pole, where the interior
# branch's log1p(a) and log1p(-a) decide the last bits.
SCAN_BANDS = BANDS + [(0.1, 0.1000000001), (0.99999999, 0.999999991)]
# And bands at both ends of the float range, where the log1p terms of
# conformal._log_f are extreme.
EXTREME_BANDS = SCAN_BANDS + [(1e-300, 2e-300), (0.9999999999999998, 0.9999999999999999)]


def _bits(values):
    """The float64 bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


def _assert_matches_scalar_paths(rho1, rho2, alphas, rho0):
    got = _distortions_at(rho1, rho2, np.sin(alphas), rho0)
    closure = _distortion_in_a(rho1, rho2, rho0)
    reference = [_scalar_distortion(rho1, rho2, x, rho0) for x in alphas]
    scan_solver = [closure(math.sin(x)) for x in alphas]
    public = [annulus_distortion(rho1, rho2, x, rho0) for x in alphas]
    assert got.dtype == np.float64 and got.shape == (len(alphas),)
    for values in (reference, scan_solver, public):
        np.testing.assert_array_equal(_bits(got), _bits(values))


@pytest.mark.parametrize("band", EXTREME_BANDS)
def test_annulus_distortions_bit_identical_on_seeded_angles(band):
    rng = np.random.default_rng(8)
    alphas = rng.uniform(0.0, math.pi / 2.0, 1500)
    # and angles whose sines fall inside and just around the band
    lo, hi = (math.asin(max(r, 0.0)) for r in band)
    alphas = np.concatenate((alphas, rng.uniform(0.5 * lo, min(2.0 * hi, 1.5), 500)))
    alphas = alphas[alphas > 0.0].tolist()
    for rho0 in (band[0], band[1], -0.5, 0.0):
        _assert_matches_scalar_paths(band[0], band[1], alphas, rho0)


@pytest.mark.parametrize("seed", range(4))
def test_annulus_distortions_bit_identical_on_both_edges_of_the_interior(seed):
    rng = np.random.default_rng(seed)
    alphas = np.sort(rng.uniform(0.01, 1.5, 400)).tolist()
    i, j = sorted(rng.choice(len(alphas), 2, replace=False).tolist())
    rho1, rho2 = math.sin(alphas[i]), math.sin(alphas[j])
    a = np.sin(alphas)
    # both ends of the closed interval rho1 <= a <= rho2 are sampled exactly
    assert (a == rho1).any() and (a == rho2).any()
    for rho0 in (rho1, rho2, 0.3):
        _assert_matches_scalar_paths(rho1, rho2, alphas, rho0)


@pytest.mark.parametrize("band", SCAN_BANDS)
def test_annulus_distortions_bit_identical_where_both_edges_tie(band):
    """At the optimum the two edges have equal stretch, f1 == f2."""
    alpha0 = optimal_alpha_by_root(*band)
    near = (alpha0 + np.arange(-2048, 2049) * np.spacing(alpha0)).tolist()
    ties = 0
    for rho0 in (band[0], band[1], 0.0):
        alphas = [alpha0] + [
            x for x in near
            if log_squared_stretch(band[0], math.sin(x), rho0)
            == log_squared_stretch(band[1], math.sin(x), rho0)
        ]
        ties += len(alphas) - 1
        _assert_matches_scalar_paths(band[0], band[1], alphas, rho0)
    if band != (-0.3, 0.9):  # no double near its optimum ties exactly
        assert ties > 0


@pytest.mark.parametrize("band", EXTREME_BANDS)
def test_annulus_distortions_near_the_ends_of_the_angle_domain(band):
    tiny = [5e-324, 1e-300, 1e-200, 1e-16, 1e-13, 1e-12]
    _assert_matches_scalar_paths(band[0], band[1], tiny, band[0])
    # sin rounds to 1.0 within about 1e-8 of pi/2.  a = 1 > rho2 takes the
    # infimum at rho2, so every path gives 0.5 * (max(f1, f2) - f2) with
    # f_i = log F(rho_i, 1, rho0) = 2 (log1p(rho0) - log1p(rho_i)).
    rho1, rho2, rho0 = band[0], band[1], band[0]
    f1, f2 = (2.0 * (math.log1p(rho0) - math.log1p(r)) for r in (rho1, rho2))
    closed = 0.5 * (max(f1, f2) - f2)
    for alpha in (math.pi / 2.0 - 1e-12, math.pi / 2.0 - 1e-13,
                  math.nextafter(math.pi / 2.0, 0.0)):
        assert math.sin(alpha) == 1.0
        values = [
            _distortions_at(rho1, rho2, np.sin([0.5, alpha]), rho0)[1],
            annulus_distortion(rho1, rho2, alpha, rho0),
            _distortion_in_a(rho1, rho2, rho0)(math.sin(alpha)),
        ]
        np.testing.assert_array_equal(_bits(values), _bits([closed] * 3))
        # the reference goes through log_squared_stretch, whose y stays checked
        with pytest.raises(ValueError, match=r"^y must lie in \(-1, 1\), got 1.0$"):
            _scalar_distortion(rho1, rho2, alpha, rho0)


@pytest.mark.parametrize("band", SCAN_BANDS)
def test_annulus_distortions_on_one_and_no_angles(band):
    for alpha in (0.3, math.asin(band[0]) if band[0] > 0.0 else 0.01, 1.2):
        _assert_matches_scalar_paths(band[0], band[1], [alpha], band[1])
    _assert_matches_scalar_paths(band[0], band[1], [], band[1])


@pytest.mark.parametrize("args, message", [
    ((0.5, 0.4, 0.8, 0.0), r"need -1 < rho1 < rho2 < 1, got \(0.5, 0.4\)"),
    ((0.1, 0.5, math.nan, 0.0), r"alpha must lie in \(0, pi/2\), got nan"),
    ((0.1, 0.5, 0, 0.0), r"alpha must lie in \(0, pi/2\), got 0.0"),
    ((0.1, 0.5, 2.0, 0.0), r"alpha must lie in \(0, pi/2\), got 2.0"),
    ((0.1, 0.5, 0.8, 1.0), r"rho0 must lie in \(-1, 1\), got 1.0"),
])
def test_annulus_distortion_rejects_each_argument_with_its_message(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        annulus_distortion(*args)


def _inside_band_lines(rng, lon_lo, lon_hi, count=6, vertices=40):
    lat_lo = math.degrees(math.asin(RHO1)) + 0.01
    lat_hi = math.degrees(math.asin(RHO2)) - 0.01
    return [
        GeoPolyline(
            f"line {k}",
            list(zip(
                np.sort(rng.uniform(lon_lo, lon_hi, vertices)),
                rng.uniform(lat_lo, lat_hi, vertices),
            )),
        )
        for k in range(count)
    ]


@pytest.mark.parametrize("kind", COMPARISON_ORDER)
@pytest.mark.parametrize("cut_deg, lon_range", [(180.0, (-175.0, 175.0)), (-30.0, (-25.0, 145.0))])
def test_project_polylines_matches_project_point(kind, cut_deg, lon_range):
    profile = make_profile(kind, ProjectionParams(RHO1, RHO2))
    cut = math.radians(cut_deg)
    lines = _inside_band_lines(np.random.default_rng(7), *lon_range)
    projected = project_polylines(profile, lines, cut)
    assert projected.dropped == 0 and len(projected.paths) == len(lines)
    for line, path in zip(lines, projected.paths):
        assert len(path) == len(line.points)
        for (lon, lat), (x, y) in zip(line.points, path):
            p = project_point(
                profile, SphericalPoint(math.radians(lon), math.sin(math.radians(lat))), cut
            )
            assert abs(x - p.re) <= 1e-12 and abs(y - p.im) <= 1e-12


def test_write_csv_stream_equals_file(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))
    values[0] = (-0.0, 5e-324, 1.7976931348623157e308)
    table = CurveTable(("a", "b", "c"), values)
    stream = io.StringIO()
    write_csv(table, stream)
    write_csv(table, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text() == stream.getvalue()
    rows = stream.getvalue().splitlines()[1:]
    assert rows == [",".join(format(v, ".17g") for v in row) for row in values.tolist()]


def test_curve_table_rejects_wrong_width_array():
    with pytest.raises(ValueError, match="ragged table row"):
        CurveTable(("a", "b"), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="non-finite table entry"):
        CurveTable(("a", "b"), [(0.0, math.inf)])
    assert CurveTable(("a",), []).rows == ()


COMMANDS = ("optimize", "table", "curves", "project", "reproduce")
BAND_OPTIONS = {"--rho1", "--rho2", "--lat1", "--lat2", "--degrees"}
# Each subcommand-specific option with a value it takes, and the subcommands
# that read it; every subcommand also takes the band options.
OPTION_OWNERS = {
    ("--samples", "11"): ("optimize", "curves"),
    ("--csv", "x.csv"): ("optimize", "table", "curves"),
    ("--scan",): ("optimize",),
    ("--alpha", "0.5"): ("project",),
    ("--kind", "central"): ("project",),
    ("--cut", "10"): ("project",),
    ("--out", "x.svg"): ("project",),
}
OWN_OPTIONS = [
    [command, *option]
    for option, owners in OPTION_OWNERS.items()
    for command in owners
]
# The option x subcommand pairs not already listed in
# test_option_of_another_subcommand_exits_2.
FOREIGN_OPTIONS = [
    [command, *option]
    for option, owners in OPTION_OWNERS.items()
    for command in COMMANDS
    if command not in owners
    and [command, *option]
    not in (
        ["optimize", "--alpha", "0.5"],
        ["table", "--kind", "central"],
        ["curves", "--cut", "10"],
        ["reproduce", "--out", "x.svg"],
    )
]


@pytest.mark.parametrize("command", COMMANDS)
def test_option_owners_name_every_option_of_the_table(command):
    own = {option[0] for option, owners in OPTION_OWNERS.items() if command in owners}
    assert own == {name for name, _ in SUBCOMMANDS[command][1] if name.startswith("-")}


class TestCliErrors:
    def test_unwritable_svg_exits_4(self, tmp_path, capsys):
        assert main(["project", "--out", str(tmp_path / "missing" / "x.svg")]) == 4
        assert "cannot write SVG" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["curves", "--samples=11"], ["optimize", "--scan", "--samples=11"], ["table"]]
    )
    def test_unwritable_csv_exits_4(self, command, tmp_path, capsys):
        argv = command + ["--csv", str(tmp_path / "missing" / "x.csv")]
        assert main(argv) == 4
        assert "cannot write CSV" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--cut", "nan"], ["--cut", "inf"], ["--cut=-inf"], ["--alpha", "nan"]]
    )
    def test_non_finite_cut_or_alpha_exits_2(self, flags, capsys):
        assert main(["project"] + flags) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["optimize", "curves"])
    def test_samples_above_the_cap_exits_2(self, command, capsys):
        assert main([command, "--samples=1000001"]) == 2
        assert capsys.readouterr().err == "error: --samples must be at most 1000000\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--alpha", "0.5"],
            ["table", "--kind", "central"],
            ["curves", "--cut", "10"],
            ["reproduce", "--out", "x.svg"],
        ]
        + FOREIGN_OPTIONS,
    )
    def test_option_of_another_subcommand_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", OWN_OPTIONS)
    def test_option_of_its_own_subcommand_is_accepted(self, argv):
        build_parser(argv[0]).parse_args(argv[1:])

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(COMMANDS) + "}" in out
        for name in COMMANDS:
            help_text = SUBCOMMANDS[name][0]
            assert re.search(rf"^ +{name} +{re.escape(help_text)}$", out, re.MULTILINE)

    @pytest.mark.parametrize("command", COMMANDS + (None,))
    def test_parser_builds_only_the_invoked_subcommands_options(self, command):
        def options(p):
            return {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}

        parser = build_parser(command)
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if command is None:
            assert [tuple(sub.choices) for sub in subs] == [COMMANDS]
            assert not options(parser)
            assert not any(options(p) for p in subs[0].choices.values())
        else:
            assert not subs
            own = {option[0] for option, owners in OPTION_OWNERS.items() if command in owners}
            assert options(parser) == BAND_OPTIONS | own

    @pytest.mark.parametrize(
        "vertex", [[None, None], [True, 50], [10, False], ["a", "b"], "12", {"0": 1}, [10]]
    )
    def test_malformed_coordinate_exits_3(self, vertex, tmp_path, capsys):
        doc = {"type": "LineString", "coordinates": [vertex, [10.0, 55.0]]}
        path = tmp_path / "bad.geojson"
        path.write_text(json.dumps(doc))
        assert main(["project", str(path)]) == 3
        assert "bad coordinate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'\xff\xfe{"type": "LineString"}', "utf-8"),
            (b"[" * 100_000 + b"]" * 100_000, "malformed JSON"),
            (b'{"type": "LineString", "coordinates": [[1' + b"0" * 400 + b', 50], [1, 50]]}',
             "out of range"),
        ],
    )
    def test_unreadable_document_exits_3(self, content, message, tmp_path, capsys):
        path = tmp_path / "bad.geojson"
        path.write_bytes(content)
        assert main(["project", str(path)]) == 3
        assert message in capsys.readouterr().err


def _edge_latitudes():
    """Latitudes near the canonical band's whose sines are exactly the edges
    of the profile built on them: vertices there lie on a band edge."""
    for k in range(100):
        lat1, lat2 = 47.5 + 1e-3 * k, 62.5 + 1e-3 * k
        params = ProjectionParams(math.sin(math.radians(lat1)), math.sin(math.radians(lat2)))
        profile = make_profile("lambert", params)
        if (profile.rho1, profile.rho2) == (params.rho1, params.rho2):
            return lat1, lat2
    raise AssertionError("no latitudes found")


LAT_LO, LAT_HI = _edge_latitudes()
_PARAMS = ProjectionParams(math.sin(math.radians(LAT_LO)), math.sin(math.radians(LAT_HI)))
_PROFILES = {kind: make_profile(kind, _PARAMS) for kind in COMPARISON_ORDER}

# (vertices, expected pieces) with the cut at 180: an int is the line's own
# vertex, "lo"/"hi" a point on the lower/upper band edge, "edge" a point on a
# sector edge (the cut meridian seen from one side).
SPLIT_CLIP_CASES = {
    "seam crossing": (
        [(170.0, 50.0), (179.0, 51.0), (-178.0, 52.0), (-170.0, 53.0)],
        [[0, 1, "edge"], ["edge", 2, 3]],
    ),
    "mirrored edge vertices": (
        [(170.0, 50.0), (180.0, 51.0), (-180.0, 52.0), (-170.0, 53.0)],
        [[0, "edge"], ["edge", "edge", 3]],
    ),
    "mirrored edge vertices first": (
        [(180.0, 50.5), (-180.0, 51.5), (-176.0, 52.5)],
        [["edge", "edge", 2]],
    ),
    "jump over the band": (
        [(40.0, 40.0), (42.0, 70.0), (44.0, 30.0)],
        [["lo", "hi"], ["hi", "lo"]],
    ),
    "single vertex inside": ([(60.0, 45.0), (61.0, 55.0), (62.0, 66.0)], [["lo", 1, "hi"]]),
    "inside between two below": ([(70.0, 44.0), (71.0, 50.0), (72.0, 46.0)], [["lo", 1, "lo"]]),
    "boundary parallels": (
        [(10.0, LAT_LO), (10.0, 55.0), (12.0, LAT_HI), (14.0, LAT_HI)],
        [[0, 1, 2, 3]],
    ),
    "seam then leaving": ([(175.0, 55.0), (-175.0, 70.0)], [[0, "edge"], ["edge", "hi"]]),
    "outside": ([(0.0, 10.0), (20.0, 20.0), (40.0, 30.0)], []),
}


def _check_piece(profile, line, path, spec):
    assert len(path) == len(spec)
    edge_angle = math.pi * profile.sin_alpha
    for (x, y), item in zip(np.asarray(path).tolist(), spec):
        if item == "edge":
            assert abs(abs(math.atan2(x, -y)) - edge_angle) <= 1e-12
        elif item in ("lo", "hi"):
            eps = profile.eps_lo if item == "lo" else profile.eps_hi
            assert math.hypot(x, y) == pytest.approx(float(profile.s(eps)), rel=1e-12)
        else:
            lon, lat = line[item]
            p = project_point(
                profile, SphericalPoint(math.radians(lon), math.sin(math.radians(lat))), math.pi
            )
            assert abs(x - p.re) <= 1e-12 and abs(y - p.im) <= 1e-12


@pytest.mark.parametrize("kind", COMPARISON_ORDER)
@pytest.mark.parametrize("case", sorted(SPLIT_CLIP_CASES))
def test_split_and_clip_branches(kind, case):
    profile = _PROFILES[kind]
    vertices, spec = SPLIT_CLIP_CASES[case]
    projected = project_polylines(profile, [GeoPolyline(case, vertices)], math.pi)
    assert len(projected.paths) == len(spec)
    assert projected.dropped == (0 if spec else 1)
    for path, piece in zip(projected.paths, spec):
        _check_piece(profile, vertices, path, piece)


def test_split_and_clip_all_lines_in_one_call():
    profile = _PROFILES["lambert"]
    names = sorted(SPLIT_CLIP_CASES)
    lines = [GeoPolyline(name, SPLIT_CLIP_CASES[name][0]) for name in names]
    projected = project_polylines(profile, lines, math.pi)
    pieces = [(name, piece) for name in names for piece in SPLIT_CLIP_CASES[name][1]]
    assert projected.dropped == 1
    assert len(projected.paths) == len(pieces)
    for path, (name, piece) in zip(projected.paths, pieces):
        _check_piece(profile, SPLIT_CLIP_CASES[name][0], path, piece)
    # every path is a view of one (n, 2) array
    base = projected.paths[0].base
    assert base is not None and all(path.base is base for path in projected.paths)


def _random_lines(rng, count=40):
    lines = []
    for k in range(count):
        n = int(rng.integers(2, 30))
        lon = (np.cumsum(rng.normal(0.0, 60.0, n)) + 180.0) % 360.0 - 180.0
        lon[rng.random(n) < 0.1] = rng.choice([-180.0, 180.0])
        lat = rng.uniform(40.0, 70.0, n)
        lines.append(GeoPolyline(f"random {k}", list(zip(lon.tolist(), lat.tolist()))))
    return lines


@pytest.mark.parametrize("kind", COMPARISON_ORDER)
@pytest.mark.parametrize("cut_deg", [180.0, -179.0, 0.0, 37.3])
def test_random_lines_keep_every_inside_vertex(kind, cut_deg):
    """Each vertex inside the band and off the cut survives, in order and in
    place; every other output vertex lies on a band edge or a sector edge."""
    profile = _PROFILES[kind]
    cut = math.radians(cut_deg)
    s_lo, s_hi = float(profile.s(profile.eps_lo)), float(profile.s(profile.eps_hi))
    edge_angle = math.pi * profile.sin_alpha
    for line in _random_lines(np.random.default_rng(int(cut_deg) + 500)):
        projected = project_polylines(profile, [line], cut)
        out = np.concatenate(projected.paths).tolist() if projected.paths else []
        expected = []
        for lon, lat in line.points:
            p = SphericalPoint(math.radians(lon), math.sin(math.radians(lat)))
            gap = (p.theta - cut) % (2.0 * math.pi)
            if profile.rho1 <= p.rho <= profile.rho2 and min(gap, 2.0 * math.pi - gap) >= 1e-9:
                expected.append(project_point(profile, p, cut))
        found = 0
        for x, y in out:
            if found < len(expected) and abs(x - expected[found].re) <= 1e-12 and abs(
                y - expected[found].im
            ) <= 1e-12:
                found += 1
                continue
            r, angle = math.hypot(x, y), abs(math.atan2(x, -y))
            on_band_edge = min(abs(r - s_lo), abs(r - s_hi)) <= 1e-12 * r
            assert on_band_edge or abs(angle - edge_angle) <= 1e-9
        assert found == len(expected)
        assert projected.dropped == (0 if projected.paths else 1)


def test_render_svg_same_for_tuples_and_arrays():
    paths = [[(0, 0), (1, 1)], [(0.125, -2.5), (1e-9, 3.0), (2.0, 2.0)], [(0.5, 0.5)]]
    arrays = [np.array(path, dtype=float) for path in paths]
    style = SvgStyle(stroke="red")
    doc = render_svg([(style, paths), (SvgStyle(), paths[:1])])
    assert render_svg([(style, arrays), (SvgStyle(), arrays[:1])]) == doc
    d = "M 0.12500000 -2.50000000 L 0.00000000 3.00000000 L 2.00000000 2.00000000"
    assert f'<path d="{d}"/>' in doc
    assert '<path d="M 0.50000000 0.50000000"/>' in doc


def _scalar_paths(profile, lines, cut, memo=None):
    """project_polylines as a per-vertex loop: wrap, split at the seam, clip
    to the band, then place each line's pieces with one profile call.

    ``memo``, a dict, keeps each line's pieces by its vertices and the band,
    for calls that share lines of the same vertices.
    """
    center = math.degrees(cut) % 360.0 - 180.0
    lo, hi = profile.rho1, profile.rho2

    def wrap(raw):
        off = math.fmod(raw, 360.0)
        return off - 360.0 if off > 180.0 else off + 360.0 if off < -180.0 else off

    def split(chain):
        pieces, current = [], [chain[0]]
        for (o0, r0), (o1, r1) in zip(chain, chain[1:]):
            if abs(o1 - o0) <= 180.0:
                current.append((o1, r1))
                continue
            o1u = o1 - math.copysign(360.0, o1 - o0)
            if o1u == o0:
                pieces.append(current)
                current = [(o1, r0), (o1, r1)]
                continue
            edge = math.copysign(180.0, o1u - o0)
            rc = r0 + (edge - o0) / (o1u - o0) * (r1 - r0)
            pieces.append(current + [(edge, rc)])
            current = [(-edge, rc), (o1, r1)]
        return [p for p in pieces + [current] if len(p) >= 2]

    def at(a, b, rho_c):
        t = (rho_c - a[1]) / (b[1] - a[1])
        return (a[0] + t * (b[0] - a[0]), rho_c)

    def clip(chain):
        pieces, current = [], []
        for i, v in enumerate(chain):
            inside = lo <= v[1] <= hi
            prev = chain[i - 1] if i else None
            was_inside = prev is not None and lo <= prev[1] <= hi
            if i == 0 or (inside and was_inside):
                current += [v] if inside else []
            elif inside:
                current = [at(prev, v, lo if prev[1] < lo else hi), v]
            elif was_inside:
                pieces.append(current + [at(prev, v, lo if v[1] < lo else hi)])
                current = []
            elif min(prev[1], v[1]) < lo and max(prev[1], v[1]) > hi:
                ends = [at(prev, v, lo), at(prev, v, hi)]
                pieces.append(ends if prev[1] < v[1] else ends[::-1])
        return pieces + ([current] if len(current) >= 2 else [])

    def pieces_of(line):
        """The line's pieces as flat (offset, rho) arrays and where they split,
        or None where the clip drops the line."""
        vertices = np.asarray(line.points).tolist()  # Python floats, the same values
        chain = [(wrap(lon - center), math.sin(math.radians(lat))) for lon, lat in vertices]
        pieces = [c for piece in split(chain) for c in clip(piece)]
        if not pieces:
            return None
        off, rho = np.array([v for piece in pieces for v in piece]).T
        return off, rho, np.cumsum([len(p) for p in pieces])[:-1]

    paths, dropped = [], 0
    for line in lines:
        if memo is None:
            pieces = pieces_of(line)
        else:
            key = (lo, hi, center, np.asarray(line.points).tobytes())
            pieces = memo[key] if key in memo else memo.setdefault(key, pieces_of(line))
        dropped += pieces is None
        if pieces is not None:
            off, rho, splits = pieces
            slant = profile.s(np.arccos(rho))
            psi = np.radians(off) * profile.sin_alpha
            xy = np.column_stack((slant * np.sin(psi), -slant * np.cos(psi)))
            paths += np.split(xy, splits)
    return paths, dropped


@pytest.mark.parametrize("kind", COMPARISON_ORDER)
@pytest.mark.parametrize("cut_deg", [180.0, -179.0, 0.0, 179.99, 37.3])
def test_project_polylines_equals_scalar_loop(kind, cut_deg):
    profile = _PROFILES[kind]
    cut = math.radians(cut_deg)
    lines = (
        graticule(10.0, 5.0, SphericalAnnulus(_PARAMS.rho1, _PARAMS.rho2))
        + [GeoPolyline(name, vertices) for name, (vertices, _) in SPLIT_CLIP_CASES.items()]
        + _random_lines(np.random.default_rng(3))
    )
    projected = project_polylines(profile, lines, cut)
    paths, dropped = _scalar_paths(profile, lines, cut)
    assert projected.dropped == dropped
    assert len(projected.paths) == len(paths)
    for got, want in zip(projected.paths, paths):
        assert np.asarray(got).tobytes() == want.tobytes()


def _in_band_latitudes(rho1, rho2):
    """The doubles nearest degrees(asin(rho1)) and degrees(asin(rho2)) whose
    heights, as the projection takes them, lie in [rho1, rho2]: each stepped
    towards the band one double at a time."""
    lat1, lat2 = math.degrees(math.asin(rho1)), math.degrees(math.asin(rho2))
    while np.sin(np.radians(lat1)) < rho1:
        lat1 = math.nextafter(lat1, 90.0)
    while np.sin(np.radians(lat2)) > rho2:
        lat2 = math.nextafter(lat2, -90.0)
    return lat1, lat2


def _list_graticule(lon_step, lat_step, annulus):
    """The graticule as a list of (name, vertex tuples), built one vertex at
    a time in Python floats."""

    def frange(lo, hi):
        n = max(1, math.ceil((hi - lo) / 0.25 - 1e-9))
        return [lo + (hi - lo) * i / n for i in range(n)] + [hi]

    lat1, lat2 = _in_band_latitudes(annulus.rho1, annulus.rho2)
    out = []
    lats = frange(lat1, lat2)
    for k in range(round(360.0 / lon_step) + 1):
        lon = -180.0 + k * lon_step
        out.append((f"meridian {lon:g}", [(lon, lat) for lat in lats]))
    lons = frange(-180.0, 180.0)
    for lat in _list_parallel_lats(lat1, lat2, lat_step):
        out.append((f"parallel {lat:g}", [(lon, lat) for lon in lons]))
    return out


def _list_parallel_lats(lat1, lat2, lat_step):
    """The band's edges and every multiple of lat_step strictly inside it,
    one multiple at a time."""
    parallel_lats = [lat1]
    k = math.floor(lat1 / lat_step) + 1
    while k * lat_step < lat2 - 1e-9:
        if k * lat_step > lat1 + 1e-9:
            parallel_lats.append(k * lat_step)
        k += 1
    parallel_lats.append(lat2)
    return parallel_lats


GRATICULE_BANDS = [
    (RHO1, RHO2),
    (math.sin(math.radians(50.2)), math.sin(math.radians(51.8))),
    (0.1, 0.1000000001),
    (0.94, 0.96),
    (-0.3, 0.9),  # np.linspace would round 65 of its 328 latitudes differently
]
# The product path also meets bands whose boundary heights
# sin(radians(degrees(asin(rho)))) round outside the band, and one whose
# heights lie within 1e-300 of the equator.
GRATICULE_PRODUCT_BANDS = GRATICULE_BANDS + [(0.4, 0.5), (0.0, 0.5), (0.0, 1e-300)]


@pytest.mark.parametrize("band", GRATICULE_BANDS)
@pytest.mark.parametrize("lon_step", [10.0, 90.0, 7.5])
def test_graticule_matches_list_reference_bit_for_bit(band, lon_step):
    annulus = SphericalAnnulus(*band)
    lines = graticule(lon_step, 5.0, annulus)
    reference = _list_graticule(lon_step, 5.0, annulus)
    assert [line.name for line in lines] == [name for name, _ in reference]
    for line, (_, vertices) in zip(lines, reference):
        assert isinstance(line.points, np.ndarray)
        want = np.array(vertices, dtype=float).view(np.int64)
        np.testing.assert_array_equal(line.points.view(np.int64), want)


@pytest.mark.parametrize("seed", range(3))
def test_graticule_parallels_match_list_reference_on_random_bands_and_steps(seed):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        rho1, rho2 = np.sort(rng.uniform(-0.99, 0.99, 2)).tolist()
        if rng.random() < 0.5:  # narrow, so that the multiples' k are large
            rho2 = rho1 + 10.0 ** rng.uniform(-13.0, -3.0)
        lat1, lat2 = _in_band_latitudes(rho1, rho2)
        lat_step = (lat2 - lat1) / rng.uniform(0.5, 300.0)
        want = _list_parallel_lats(lat1, lat2, lat_step)
        parallels = graticule(90.0, lat_step, SphericalAnnulus(rho1, rho2))[5:]
        assert [line.name for line in parallels] == [f"parallel {lat:g}" for lat in want]
        for line, lat in zip(parallels, want):
            assert (line.points[:, 1].view(np.int64) == _bits(lat)).all()


# Cuts that put a parallel's vertex (179.75, -142.5) or a meridian (180,
# -180, 0, 37.5 at lon_step 7.5) on the seam; at -1e-14 the central
# longitude rounds to 180, so the -180 meridian's offset is -0.0.
GRATICULE_CUTS = [180.0, -180.0, 0.0, 37.5, 179.75, -142.5, -1e-14]
LON_STEPS = [10.0, 90.0, 7.5]


def _assert_same_paths(projected, paths, dropped):
    assert projected.dropped == dropped
    assert len(projected.paths) == len(paths)
    for got, want in zip(projected.paths, paths):
        assert np.asarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("cut_deg", GRATICULE_CUTS)
@pytest.mark.parametrize("band", GRATICULE_PRODUCT_BANDS)
def test_a_graticule_projects_as_the_scalar_loop(band, cut_deg):
    """An unchanged Graticule takes the product path of project_polylines,
    with the scalar loop's paths and none dropped."""
    cut = math.radians(cut_deg)
    memo = {}
    for kind in COMPARISON_ORDER:
        if band == (0.0, 1e-300) and kind == "lambert":
            continue  # an upward cone, rejected by make_profile
        profile = make_profile(kind, ProjectionParams(*band))
        for lon_step in LON_STEPS:
            grid = graticule(lon_step, 5.0, SphericalAnnulus(*band))
            assert type(grid) is Graticule
            paths, dropped = _scalar_paths(profile, grid, cut, memo)
            assert dropped == 0
            _assert_same_paths(project_polylines(profile, grid, cut), paths, dropped)


def _counting_slant(profile):
    """A copy of ``profile`` whose ``s`` records the size of each call."""
    sizes = []

    def s(e):
        sizes.append(np.size(e))
        return profile.s(e)

    return dataclasses.replace(profile, s=s), sizes


@pytest.mark.parametrize("change", ["append", "item", "slice", "sum", "wider band", "none"])
def test_a_changed_graticule_takes_the_general_path(change):
    band = (0.4, 0.5)
    profile, sizes = _counting_slant(make_profile("central", ProjectionParams(*band)))
    grid = graticule(10.0, 5.0, SphericalAnnulus(*band))
    extra = GeoPolyline("extra", [(0.0, 24.0), (10.0, 28.0)])
    if change == "append":
        grid.append(extra)
    elif change == "item":
        grid[3] = extra
    elif change == "slice":
        grid = grid[:]
    elif change == "sum":
        grid = grid + [extra]
    elif change == "wider band":  # unchanged, but not all of it lies in the band
        grid = graticule(10.0, 5.0, SphericalAnnulus(0.3, 0.9))
    projected = project_polylines(profile, grid, math.pi)
    vertices = sum(map(len, projected.paths))
    if change == "none":
        assert len(sizes) == 1 and sizes[0] < vertices  # one slant a height
        return
    assert sizes == [vertices]  # one slant a vertex
    paths, dropped = _scalar_paths(profile, grid, math.pi)
    _assert_same_paths(projected, paths, dropped)


# The degenerate bands: next to the equator, within an ulp of each other
# near the pole, and one whose cone apex lies just above the pole.
MAP_EDGE_BANDS = [
    (0.0, 1e-300),
    (1e-300, 2e-300),
    (0.7544591939931753, 0.999999999999999),
    (0.9999999999999998, 0.9999999999999999),
]
MAP_BANDS = st.one_of(
    st.tuples(st.floats(-0.999, 0.999), st.floats(-0.999, 0.999)).map(sorted),
    # 1e-12 to 1e-3 wide
    st.builds(
        lambda rho1, width: (rho1, rho1 + width),
        st.floats(-0.9, 0.999),
        st.floats(-12.0, -3.0).map(lambda u: 10.0**u),
    ),
    # rho2 within 1e-9 of the pole
    st.builds(
        lambda gap, width: (1.0 - gap - width, 1.0 - gap),
        st.floats(-15.5, -9.0).map(lambda u: 10.0**u),
        st.floats(-15.0, 0.0).map(lambda u: 10.0**u),
    ),
    # rho1 + rho2 down to 1e-12
    st.builds(
        lambda total, width: (0.5 * (total - width), 0.5 * (total + width)),
        st.floats(-12.0, -3.0).map(lambda u: 10.0**u),
        st.floats(-15.0, 0.0).map(lambda u: 10.0**u),
    ),
    st.sampled_from(MAP_EDGE_BANDS),
)
MAP_CUTS = [0.0, -0.0, 1e-14, -1e-14, 180.0, -180.0, 179.75, -142.5]


@settings(max_examples=40, deadline=None)
@given(band=MAP_BANDS, kind=st.sampled_from(COMPARISON_ORDER), cut_deg=st.sampled_from(MAP_CUTS))
@example(band=MAP_EDGE_BANDS[0], kind="central", cut_deg=-1e-14)
@example(band=MAP_EDGE_BANDS[1], kind="orthogonal", cut_deg=180.0)
@example(band=MAP_EDGE_BANDS[2], kind="delisle", cut_deg=-0.0)
@example(band=MAP_EDGE_BANDS[3], kind="teichmuller", cut_deg=179.75)
def test_a_graticule_lies_in_its_band_and_projects_as_its_list(band, kind, cut_deg):
    """Every vertex of a graticule has its height in the band, so its product
    path, the general path of its list and the scalar loop draw the same
    paths bit for bit, and drop none."""
    rho1, rho2 = band
    assume(-1.0 < rho1 < rho2 < 1.0 and rho1 + rho2 > 0.0)
    try:
        profile = make_profile(kind, ProjectionParams(rho1, rho2))
    except (ValueError, OverflowError):  # documented, or lambert_chart's overflow (see
        reject()  # the strict xfails of test_exact_extremes.py)
    grid = graticule(10.0, 5.0, SphericalAnnulus(rho1, rho2))
    heights = np.sin(np.radians(np.concatenate([line.points[:, 1] for line in grid])))
    assert rho1 <= heights.min() and heights.max() <= rho2
    cut = math.radians(cut_deg)
    projected = project_polylines(profile, grid, cut)
    assert projected.dropped == 0
    _assert_same_paths(project_polylines(profile, list(grid), cut), projected.paths, 0)
    _assert_same_paths(projected, *_scalar_paths(profile, grid, cut))


# Finite cuts, in radians, whose degrees overflow to inf.
HUGE_CUTS = [1e307, -1e307, 1.7976931348623157e308]


def _reference_cut(cut):
    """The cut whose paths ``cut`` draws: its remainder modulo 2 pi where its
    degrees overflow, else itself."""
    return math.fmod(cut, 2.0 * math.pi) if math.isinf(math.degrees(cut)) else cut


@pytest.mark.parametrize("cut", HUGE_CUTS)
def test_a_huge_finite_cut_draws_the_paths_of_its_remainder(cut):
    """Tuple lines and a graticule, which takes the product path, draw
    finite paths, bit for bit those of the cut modulo 2 pi."""
    profile = _PROFILES["lambert"]
    lines = [GeoPolyline(name, vertices) for name, (vertices, _) in SPLIT_CLIP_CASES.items()]
    grid = graticule(10.0, 5.0, SphericalAnnulus(_PARAMS.rho1, _PARAMS.rho2))
    for drawn in (lines, grid):
        projected = project_polylines(profile, drawn, cut)
        assert projected.paths and all(np.isfinite(path).all() for path in projected.paths)
        want = project_polylines(profile, drawn, math.fmod(cut, 2.0 * math.pi))
        _assert_same_paths(projected, want.paths, want.dropped)


@pytest.mark.parametrize("cut", [math.inf, -math.inf])
def test_an_infinite_cut_raises_as_in_project_point(cut):
    profile = _PROFILES["lambert"]
    line = GeoPolyline("line", [(10.0, 55.0), (20.0, 56.0)])
    with pytest.raises(ValueError):
        project_polylines(profile, [line], cut)
    with pytest.raises(ValueError):
        project_point(profile, SphericalPoint(0.2, _PARAMS.rho1), cut)


_LAT_MAX = math.nextafter(90.0, 0.0)
LINE_CUTS = [math.radians(cut_deg) for cut_deg in MAP_CUTS] + [1e307, -1e307]


def _line_vertices(lat1, lat2, outside):
    """Lists of up to six vertex lists of 2 to 8 (lon, lat) pairs for the
    band of latitudes [lat1, lat2].  A vertex lies at any longitude or on
    +-180, so lines cross the seam and jump from edge to edge; its latitude
    lies in the band, on an edge, beyond it or anywhere, so lines also run
    outside it.  With ``outside``, each line lies beyond one edge."""
    lon = st.one_of(st.floats(-180.0, 180.0), st.sampled_from([-180.0, 180.0]))
    below = st.floats(-_LAT_MAX, lat1, exclude_max=True)
    above = st.floats(lat2, _LAT_MAX, exclude_min=True)
    if outside:
        line = st.one_of(
            st.lists(st.tuples(lon, below), min_size=2, max_size=8),
            st.lists(st.tuples(lon, above), min_size=2, max_size=8),
        )
    else:
        lat = st.one_of(
            st.floats(lat1, lat2),
            st.sampled_from([lat1, lat2]),
            below,
            above,
            st.floats(-_LAT_MAX, _LAT_MAX),
        )
        line = st.lists(st.tuples(lon, lat), min_size=2, max_size=8)
    return st.lists(line, max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    band=MAP_BANDS,
    kind=st.sampled_from(COMPARISON_ORDER),
    cut=st.sampled_from(LINE_CUTS),
    data=st.data(),
)
def test_lines_project_as_the_scalar_loop_between_the_edge_slants(band, kind, cut, data):
    """Random lines, mixed with graticule rows (array points) of the band or
    a wider one, project bit for bit as the scalar loop does, with the same
    count dropped; a huge cut as its remainder modulo 2 pi.  Every vertex is
    finite, and its distance from the apex lies between the slants of the
    two band edges, up to rounding."""
    rho1, rho2 = band
    assume(-1.0 < rho1 < rho2 < 1.0 and rho1 + rho2 > 0.0)
    try:
        profile = make_profile(kind, ProjectionParams(rho1, rho2))
    except (ValueError, OverflowError):  # as in the graticule property above
        reject()
    lat1, lat2 = (math.degrees(math.asin(rho)) for rho in band)
    outside = data.draw(st.booleans(), "outside")
    vertices = data.draw(_line_vertices(lat1, lat2, outside), "vertices")
    lines = [GeoPolyline(f"line {k}", points) for k, points in enumerate(vertices)]
    if not outside:
        wider = data.draw(st.booleans(), "wider")
        grid = graticule(10.0, 5.0, SphericalAnnulus((rho1 - 1.0) / 2.0 if wider else rho1, rho2))
        rows = data.draw(st.lists(st.sampled_from(grid), max_size=3), "graticule rows")
        lines = data.draw(st.permutations(lines + rows), "order")

    projected = project_polylines(profile, lines, cut)
    _assert_same_paths(projected, *_scalar_paths(profile, lines, _reference_cut(cut)))
    if projected.paths:
        xy = np.concatenate(projected.paths)
        assert np.isfinite(xy).all()
        distance = np.hypot(xy[:, 0], xy[:, 1])
        s1, s2 = profile.s(np.arccos([profile.rho1, profile.rho2])).tolist()
        # the slant changes sign within the band only where the apex lies in it
        low = min(abs(s1), abs(s2)) if (s1 > 0.0) == (s2 > 0.0) else 0.0
        assert low * (1.0 - 1e-15) <= distance.min()
        assert distance.max() <= max(abs(s1), abs(s2)) * (1.0 + 1e-15)


_ARG_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1.0, 1.0),
    st.sampled_from([1e307, -1e307, 1.7976931348623157e308, 180.0, -180.0, 179.75, -0.0, 5e-324]),
)
_GEOJSON_LINES = st.lists(
    st.lists(
        st.tuples(
            st.one_of(st.floats(-180.0, 180.0), st.sampled_from([-180.0, 180.0])),
            st.floats(-_LAT_MAX, _LAT_MAX),
        ),
        min_size=1,
        max_size=8,
    ),
    max_size=4,
)


@st.composite
def _project_argvs(draw):
    """``project`` argvs of a random kind, band, cut, --alpha and GeoJSON
    lines; each option may be left out, and a value may lie outside its
    domain.  Returns the argv without the GeoJSON path, and the lines, or
    None for no GeoJSON file."""
    argv = ["project", "--kind", draw(st.sampled_from(COMPARISON_ORDER))]
    band = draw(st.one_of(st.none(), MAP_BANDS, st.tuples(_ARG_FLOATS, _ARG_FLOATS)))
    if band is not None:
        argv += [f"--rho1={band[0]!r}", f"--rho2={band[1]!r}"]
    elif draw(st.booleans()):
        lat1, lat2 = draw(st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)))
        argv += [f"--lat1={lat1!r}", f"--lat2={lat2!r}", "--degrees"]
    if draw(st.booleans()):
        argv.append(f"--cut={draw(_ARG_FLOATS)!r}")
    if draw(st.integers(0, 3)) == 0:  # only Lambert takes it, so it seldom draws a map
        argv.append(f"--alpha={draw(st.floats(0.0, 1.6) | _ARG_FLOATS)!r}")
    return argv, draw(st.none() | _GEOJSON_LINES)


@pytest.fixture(scope="module")
def geojson_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "lines.geojson"


@settings(max_examples=60, deadline=None)
@given(case=_project_argvs())
def test_fuzzed_project_argv_exits_with_its_code_and_draws_no_nan(case, geojson_path):
    """A fuzzed ``project`` argv exits 0 with an SVG free of NaN and inf, or
    2 or 3 with a message; it raises nothing, except lambert_chart's
    overflow of the strict xfails in test_exact_extremes.py."""
    argv, lines = case
    if lines is not None:
        features = [
            {"type": "Feature", "geometry": {"type": "LineString", "coordinates": line}}
            for line in lines
        ]
        geojson_path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        argv = argv + [str(geojson_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except OverflowError as exc:
            assert traceback.extract_tb(exc.__traceback__)[-1].name == "lambert_chart"
            reject()
    assert code in (0, 2, 3), (code, err.getvalue())
    if code == 0:
        assert out.getvalue().startswith("<?xml") and err.getvalue() == ""
        assert not re.search("nan|inf", out.getvalue(), re.IGNORECASE)
    else:
        assert err.getvalue().startswith(("error: ", "usage: "))


BAD_POLYLINES = [
    ([], "a polyline needs at least 2 points"),
    ([(0.0, 50.0)], "a polyline needs at least 2 points"),
    ([(0.0, 50.0), (math.nan, 50.0)], "non-finite coordinate"),
    ([(0.0, 50.0), (math.inf, 50.0)], "non-finite coordinate"),
    ([(0.0, 50.0), (0.0, -math.inf)], "non-finite coordinate"),
    ([(0.0, 50.0), (180.5, 50.0)], "longitude 180.5 out of range"),
    ([(-180.25, 50.0), (0.0, 50.0)], "longitude -180.25 out of range"),
    ([(0.0, 50.0), (0.0, 90.0)], "latitude 90.0 out of range"),
    ([(0.0, -90.0), (0.0, 50.0)], "latitude -90.0 out of range"),
    ([(0.0, 50.0), (0.0, 95.0), (200.0, 50.0), (math.nan, 0.0)], "latitude 95.0 out of range"),
    ([(0.0, 50.0), (300.0, math.nan), (0.0, 95.0)], "non-finite coordinate"),
    ([(0.0, 50.0), (300.0, 95.0), (0.0, 95.0)], "longitude 300.0 out of range"),
    ([(0.0, 50.0, 1.0), (1.0, 51.0, 2.0)], "vertices must be (longitude, latitude) pairs of numbers"),
    ([0.0, 50.0, 1.0, 51.0], "vertices must be (longitude, latitude) pairs of numbers"),
    ([(), (), ()], "vertices must be (longitude, latitude) pairs of numbers"),
]


@pytest.mark.parametrize("vertices, message", BAD_POLYLINES)
def test_array_and_tuple_points_are_rejected_alike(vertices, message):
    pattern = f"^line: {re.escape(message)}$"
    with pytest.raises(ValidationError, match=pattern):
        GeoPolyline("line", vertices)
    with pytest.raises(ValidationError, match=pattern):
        GeoPolyline("line", np.array(vertices, dtype=float))


def test_array_points_accept_the_edges_of_the_domain():
    vertices = [(-180.0, -89.99999999999999), (180.0, 89.99999999999999), (0.0, 0.0)]
    assert GeoPolyline("edges", np.array(vertices)).points == tuple(vertices)
    assert GeoPolyline("edges", vertices).points == tuple(vertices)


def test_polylines_with_array_points_compare_and_hash():
    a = GeoPolyline("a", np.array([[10.0, 50.0], [20.0, 55.0]]))
    b = GeoPolyline("a", np.array([[10.0, 50.0], [20.0, 55.0]]))
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert hash(GeoPolyline("t", [(10.0, 50.0), (20.0, 55.0)])) is not None


@pytest.mark.parametrize("kind", COMPARISON_ORDER)
@pytest.mark.parametrize("cut_deg", [180.0, -179.0, 37.3])
def test_project_polylines_on_mixed_array_and_tuple_lines(kind, cut_deg):
    profile = _PROFILES[kind]
    cut = math.radians(cut_deg)
    grid = graticule(30.0, 5.0, SphericalAnnulus(_PARAMS.rho1, _PARAMS.rho2))
    tuples = [GeoPolyline(name, vertices) for name, (vertices, _) in SPLIT_CLIP_CASES.items()]
    tuples += _random_lines(np.random.default_rng(11), count=12)
    # alternate single lines and runs of each form, and convert some tuple
    # lines to arrays
    lines = []
    for k, line in enumerate(tuples):
        lines.append(line if k % 3 else GeoPolyline(line.name, np.array(line.points)))
        lines.extend(grid[k % len(grid): k % len(grid) + k % 3])
    assert {isinstance(line.points, np.ndarray) for line in lines[:6]} == {True, False}
    projected = project_polylines(profile, lines, cut)
    paths, dropped = _scalar_paths(profile, lines, cut)
    assert projected.dropped == dropped
    assert len(projected.paths) == len(paths)
    for got, want in zip(projected.paths, paths):
        assert np.asarray(got).tobytes() == want.tobytes()


def test_project_polylines_of_no_lines():
    projected = project_polylines(_PROFILES["lambert"], [])
    assert (projected.paths, projected.dropped) == ([], 0)
