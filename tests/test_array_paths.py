"""The array-valued evaluation paths agree with the scalar ones they replace,
and the CLI maps bad input and unwritable output to their exit codes."""

import io
import json
import math

import numpy as np
import pytest

from conicmaps import (
    CurveTable,
    GeoPolyline,
    SphericalPoint,
    annulus_distortions,
    log_squared_stretch,
    make_profile,
    project_point,
    project_polylines,
    stretch_at,
    write_csv,
)
from conicmaps.cli import main, sigma_table
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
    """annulus_distortion as written before it had an array form."""
    a = math.sin(alpha)
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
        delta = _scalar_distortion(band[0], band[1], math.asin(a), band[0])
        lines.append(f"{format(a, '.17g')},{format(delta, '.17g')}")
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_annulus_distortions_checks_every_angle():
    assert annulus_distortions(RHO1, RHO2, [], RHO1).shape == (0,)
    with pytest.raises(ValueError, match="alpha must lie"):
        annulus_distortions(RHO1, RHO2, [0.5, 0.9, math.nan], RHO1)
    with pytest.raises(ValueError, match="alpha must lie"):
        annulus_distortions(RHO1, RHO2, [0.5, -0.1], RHO1)
    with pytest.raises(ValueError, match="rho1 < rho2"):
        annulus_distortions(RHO2, RHO1, [0.5], RHO1)


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


class TestCliErrors:
    def test_unwritable_svg_exits_4(self, tmp_path, capsys):
        assert main(["project", "--out", str(tmp_path / "missing" / "x.svg")]) == 4
        assert "cannot write SVG" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["curves"], ["optimize", "--scan"], ["table"]])
    def test_unwritable_csv_exits_4(self, command, tmp_path, capsys):
        argv = command + ["--samples=11", "--csv", str(tmp_path / "missing" / "x.csv")]
        assert main(argv) == 4
        assert "cannot write CSV" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--cut", "nan"], ["--cut", "inf"], ["--cut=-inf"], ["--alpha", "nan"]]
    )
    def test_non_finite_cut_or_alpha_exits_2(self, flags, capsys):
        assert main(["project"] + flags) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--alpha", "0.5"],
            ["table", "--kind", "central"],
            ["curves", "--cut", "10"],
            ["reproduce", "--out", "x.svg"],
        ],
    )
    def test_option_of_another_subcommand_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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
