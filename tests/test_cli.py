import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import A0, A0_ALT_RHO2, PUBLISHED
from conicmaps.cli import main


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "conicmaps", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def parse_value(stdout, key):
    m = re.search(rf"^{re.escape(key)} = ([^\s]+)", stdout, re.MULTILINE)
    assert m, f"{key!r} not found in output:\n{stdout}"
    return float(m.group(1))


class TestOptimize:
    def test_defaults(self):
        res = run_cli("optimize")
        assert res.returncode == 0
        assert abs(parse_value(res.stdout, "a0") - A0) <= 1e-9
        assert abs(parse_value(res.stdout, "delta_min") - 0.0086263925) <= 1e-9
        assert "alpha0" in res.stdout and "\u00b0" in res.stdout  # degree-minutes

    def test_alternative_upper_height(self):
        res = run_cli("optimize", "--rho2", "0.92388")
        assert res.returncode == 0
        a0 = parse_value(res.stdout, "a0")
        assert abs(a0 - A0_ALT_RHO2) <= 1e-9
        assert abs(a0 - 0.847810) <= 1e-4

    def test_invalid_band_exits_2(self):
        res = run_cli("optimize", "--rho1", "0.9", "--rho2", "0.8")
        assert res.returncode == 2
        assert "rho1 < rho2" in res.stderr

    def test_upward_cone_band_exits_2(self):
        # rho1 + rho2 <= 0 puts the optimal a0 at or below 0
        res = run_cli("optimize", "--rho1", "-0.5", "--rho2", "0.3")
        assert res.returncode == 2
        assert "a0 = -0.112579 <= 0" in res.stderr
        assert "upward cone" in res.stderr and "rho1 + rho2 > 0" in res.stderr
        assert "alpha must lie" not in res.stderr

    def test_latitude_flags(self):
        res = run_cli("optimize", "--lat1", "47.5", "--lat2", "62.5", "--degrees")
        assert res.returncode == 0
        assert abs(parse_value(res.stdout, "a0") - A0) <= 1e-4

    def test_scan_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        res = run_cli(
            "optimize", "--scan", "--samples", "201", "--csv", str(out)
        )
        assert res.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "sin_alpha,distortion"
        assert len(lines) == 202
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        best = min(rows, key=lambda r: r[1])
        assert abs(best[0] - A0) <= 1.0 / 202

    def test_csv_implies_scan(self, tmp_path):
        out = tmp_path / "scan.csv"
        res = run_cli("optimize", "--csv", str(out), "--samples", "5")
        assert res.returncode == 0
        assert "sin_alpha" not in res.stdout
        scanned = run_cli("optimize", "--scan", "--samples", "5")
        assert out.read_text() == scanned.stdout[scanned.stdout.index("sin_alpha"):]


class TestTable:
    def test_six_rows_and_values(self):
        res = run_cli("table")
        assert res.returncode == 0
        lines = res.stdout.strip().split("\n")
        rows = {}
        for line in lines[1:]:
            parts = line.split()
            rows[parts[0]] = float(parts[1])
        assert list(rows) == [
            "central",
            "delisle",
            "delisle-equidistant",
            "orthogonal",
            "teichmuller",
            "lambert",
        ]
        for kind, delta in rows.items():
            target, tol = PUBLISHED[f"distortion {kind}"]
            assert abs(delta - target) <= tol, kind

    def test_narrow_band(self):
        res = run_cli("table", "--rho1", "0.5", "--rho2", "0.5000001")
        assert res.returncode == 0, res.stderr
        rows = res.stdout.strip().split("\n")[1:]
        assert len(rows) == 6
        for line in rows:
            assert all(math.isfinite(float(v)) for v in line.split()[1:]), line

    def test_very_narrow_band(self):
        # the root of the equal-stretch equation lies inside a band 1e-10 wide
        res = run_cli("table", "--rho1", "0.1", "--rho2", "0.1000000001")
        assert res.returncode == 0, res.stderr
        rows = res.stdout.strip().split("\n")[1:]
        assert len(rows) == 6
        for line in rows:
            assert all(math.isfinite(float(v)) for v in line.split()[1:]), line

    def test_wide_band_prints_the_undefined_kind(self, tmp_path):
        # the delisle-equidistant slant distance vanishes on this band
        out = tmp_path / "table.csv"
        res = run_cli("table", "--rho1", "-0.6", "--rho2", "0.998", "--csv", str(out))
        assert res.returncode == 0, res.stderr
        rows = [line.split() for line in res.stdout.strip().split("\n")[1:]]
        assert [row[0] for row in rows] == [
            "central",
            "delisle",
            "delisle-equidistant",
            "orthogonal",
            "teichmuller",
            "lambert",
        ]
        assert rows[2][1:] == ["undefined"]
        for row in rows[:2] + rows[3:]:
            assert len(row) == 4 and all(math.isfinite(float(v)) for v in row[1:]), row
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "kind_index,distortion,sup_stretch,inf_stretch"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 1, 3, 4, 5]
        for line, row in zip(lines[1:], rows[:2] + rows[3:]):
            assert f"{float(line.split(',')[1]):.10f}" == row[1]


class TestCurves:
    def test_row_count_and_endpoints(self, tmp_path):
        out = tmp_path / "curves.csv"
        res = run_cli("curves", "--samples", "101", "--csv", str(out))
        assert res.returncode == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "rho" and "sigma_lambert" in header
        assert len(lines) == 102
        first = list(map(float, lines[1].split(",")))
        last = list(map(float, lines[-1].split(",")))
        i_lambert = header.index("sigma_lambert")
        assert abs(first[i_lambert] - 1.0) <= 1e-9
        assert abs(last[i_lambert] - 1.0) <= 1e-9
        # lambert maximum at rho = a0, up to the grid spacing
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        best = max(rows, key=lambda r: r[i_lambert])
        spacing = rows[1][0] - rows[0][0]
        assert abs(best[0] - A0) <= spacing
        # extremal and conformal curves nearly coincide; the boundary gap is
        # bounded by the dilatation minus one
        i_teich = header.index("sigma_teichmuller")
        assert max(abs(r[i_teich] - r[i_lambert]) for r in rows) <= 3e-3


class TestProject:
    def test_deterministic_svg(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run_cli("project", "--out", str(a)).returncode == 0
        assert run_cli("project", "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parallels_render_as_circular_arcs(self, tmp_path):
        out = tmp_path / "map.svg"
        assert run_cli("project", "--out", str(out)).returncode == 0
        doc = out.read_text()
        paths = re.findall(r'<path d="([^"]+)"/>', doc)
        assert len(paths) == 42  # 37 meridian polylines + 5 parallels
        for d in paths[-5:]:
            pts = re.findall(r"(-?\d+\.\d+) (-?\d+\.\d+)", d)
            radii = [math.hypot(float(x), float(y)) for x, y in pts]
            assert max(radii) - min(radii) <= 1e-6

    def test_boundary_radius_depends_on_kind(self, tmp_path):
        radii = {}
        for kind in ("lambert", "central"):
            out = tmp_path / f"{kind}.svg"
            assert run_cli("project", "--kind", kind, "--out", str(out)).returncode == 0
            doc = out.read_text()
            paths = re.findall(r'<path d="([^"]+)"/>', doc)
            pts = [
                (float(x), float(y))
                for d in paths
                for x, y in re.findall(r"(-?\d+\.\d+) (-?\d+\.\d+)", d)
            ]
            radii[kind] = max(math.hypot(x, y) for x, y in pts)
        assert radii["lambert"] == pytest.approx(0.822357, abs=1e-5)
        assert radii["central"] == pytest.approx(0.824743, abs=1e-5)

    def test_coastline_overlay(self, tmp_path):
        coast = tmp_path / "coast.geojson"
        coast.write_text(
            json.dumps(
                {
                    "type": "LineString",
                    "coordinates": [[10.0, 50.0], [20.0, 55.0], [30.0, 60.0]],
                }
            )
        )
        out = tmp_path / "map.svg"
        res = run_cli("project", str(coast), "--out", str(out))
        assert res.returncode == 0
        assert out.read_text().count("<g ") == 2

    def test_bad_geojson_exits_3(self, tmp_path):
        bad = tmp_path / "bad.geojson"
        bad.write_text('{"type": "LineString"')
        res = run_cli("project", str(bad))
        assert res.returncode == 3
        assert "line" in res.stderr

    def test_missing_file_exits_3(self, tmp_path):
        res = run_cli("project", str(tmp_path / "nope.geojson"))
        assert res.returncode == 3


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("table", "--csv", ""), 4, "cannot write CSV to : "),
        (("optimize", "--csv", ""), 4, "cannot write CSV to : "),
        (("curves", "--csv", ""), 4, "cannot write CSV to : "),
        (("project", "--out", ""), 4, "cannot write SVG to : "),
        (("project", ""), 3, "cannot read : "),
    ],
    ids=["table-csv", "optimize-csv", "curves-csv", "project-out", "project-geojson"],
)
def test_an_empty_path_is_a_path_that_cannot_be_opened(argv, code, message, capsys):
    """An empty output or GeoJSON path is neither left out nor read as
    stdout: opening it fails, with the exit code of its kind."""
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {message}")
    assert "," not in out and "<svg" not in out  # no CSV or SVG reached stdout


class TestReproduce:
    def test_all_pass(self):
        res = run_cli("reproduce")
        assert res.returncode == 0, res.stdout
        assert "FAIL" not in res.stdout
        assert "all targets PASS" in res.stdout
        assert "0.9640" in res.stdout  # the rounding annotation

    def test_alternative_rho2_fails_modulus(self):
        res = run_cli("reproduce", "--rho2", "0.92388")
        assert res.returncode == 1
        line = next(
            l for l in res.stdout.split("\n") if l.startswith("mod_sphere_annulus")
        )
        assert "FAIL" in line

    def test_narrow_band_prints_every_row(self):
        # the band's Lambert cone meets the sphere in two circles 1e-7 apart,
        # at its two parallels up to terms of second order in the width; the
        # targets belong to the canonical band, so most rows fail (exit 1)
        res = run_cli("reproduce", "--rho1", "0.5", "--rho2", "0.5000001")
        assert res.returncode == 1, res.stderr
        rows = [l for l in res.stdout.split("\n") if l.endswith(("PASS", "FAIL"))]
        assert len(rows) == 14
        upper = next(l for l in rows if l.startswith("upper_intersection_height"))
        assert abs(float(upper.split()[2]) - 0.5000001) <= 1e-12

    @pytest.mark.parametrize(
        "band, undefined",
        [
            (("0.4644", "0.9922"), ["upper_intersection_height"]),
            (("-0.6", "0.998"),
             ["upper_intersection_height", "distortion delisle-equidistant"]),
            (("0.3", "0.995"), ["upper_intersection_height"]),
        ],
    )
    def test_band_above_the_lambert_apex_prints_undefined_rows(self, band, undefined):
        # the band reaches above the apex of its Lambert cone, so the cone's
        # downward nappe meets the sphere in one circle only; on (-0.6, 0.998)
        # the delisle-equidistant kind is also no map of the band
        res = run_cli("reproduce", "--rho1", band[0], "--rho2", band[1])
        assert res.returncode == 1, res.stderr
        assert res.stderr == ""
        rows = [l for l in res.stdout.split("\n") if l.endswith(("PASS", "FAIL"))]
        assert len(rows) == 14
        marked = [l for l in rows if "undefined" in l.split()]
        assert [l.split("  ")[0] for l in marked] == undefined
        assert all(l.split()[-2:] == ["undefined", "FAIL"] for l in marked)


class TestMakeFigures:
    def test_writes_the_cli_artifacts(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_figures.py"
        outdir = tmp_path / "figs"
        res = subprocess.run(
            [sys.executable, str(script), "--outdir", str(outdir)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout == (
            run_cli("optimize").stdout + run_cli("table").stdout
            + f"wrote artifacts to {outdir}/\n"
        )
        names = ["central_map.svg", "lambert_map.svg", "optimal_scan.csv", "sigma_comparison.csv"]
        assert sorted(p.name for p in outdir.iterdir()) == names
        for kind in ("lambert", "central"):
            svg = run_cli("project", "--kind", kind).stdout
            assert (outdir / f"{kind}_map.svg").read_text() == svg
        assert (outdir / "sigma_comparison.csv").read_text() == run_cli("curves").stdout
        scan = run_cli("optimize", "--scan").stdout
        assert scan.endswith((outdir / "optimal_scan.csv").read_text())


class TestProjectOnAWideBand:
    """On (-0.6, 0.998) the delisle-equidistant slant distance vanishes near
    the upper edge, so that kind is no map of the band: project refuses it
    as curves does, and draws the other five."""

    BAND = ("--rho1", "-0.6", "--rho2", "0.998")

    def test_kind_that_is_no_map_of_the_band_exits_2(self, tmp_path):
        out = tmp_path / "map.svg"
        res = run_cli("project", "--kind", "delisle-equidistant", *self.BAND, "--out", str(out))
        assert res.returncode == 2
        assert res.stderr == "error: stretches must be positive\n"
        assert res.stdout == "" and not out.exists()
        curves = run_cli("curves", *self.BAND)
        assert (curves.returncode, curves.stderr) == (2, res.stderr)

    @pytest.mark.parametrize(
        "kind", ["central", "delisle", "orthogonal", "teichmuller", "lambert"]
    )
    def test_the_other_kinds_still_draw(self, kind):
        res = run_cli("project", "--kind", kind, *self.BAND)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("<?xml") and res.stdout.endswith("</svg>\n")


class TestLatitudeDomain:
    """A latitude at or beyond a pole is rejected, not folded back by its
    sine into another band; the band check still speaks first."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("table", "--lat1", "20", "--lat2", "120", "--degrees"),
             "error: invalid latitude: need |lat2| < 90, got lat2=120\n"),
            (("optimize", "--lat1", "0.5", "--lat2", "2.0"),
             "error: invalid latitude: need |lat2| < 1.5708, got lat2=2\n"),
            (("curves", "--lat1", "-95", "--lat2", "10", "--degrees"),
             "error: invalid latitude: need |lat1| < 90, got lat1=-95\n"),
        ],
    )
    def test_latitude_beyond_a_pole_exits_2(self, argv, message, capsys):
        assert main(list(argv)) == 2
        assert capsys.readouterr() == ("", message)

    def test_an_inverted_band_keeps_the_band_message(self):
        res = run_cli("project", "--lat1", "100", "--lat2", "120", "--degrees")
        assert res.returncode == 2
        assert res.stderr.startswith("error: need -1 < rho1 < rho2 < 1")


class TestUpwardConeMessage:
    """On a band in the domain whose optimal a0 rounds to 0, every subcommand
    that needs the Lambert cone gives the one upward-cone message; where it
    rounds to rho1 or below, the one message that names the band."""

    COMMANDS = ("optimize", "table", "curves", "project", "reproduce")
    NEAR_POLE = (0.9999999999999998, 0.9999999999999999)

    @staticmethod
    def message(total):
        return (f"error: rho1 + rho2 = {total} gives the optimal a0 = 0 <= 0, an upward "
                "cone; the domain needs rho1 + rho2 > 0\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a0_that_rounds_to_0(self, command, capsys):
        assert main([command, "--rho1=0.0", "--rho2=1e-300"]) == 2
        assert capsys.readouterr() == ("", self.message("1e-300"))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subnormal_band(self, command, capsys):
        assert main([command, "--rho1=5e-324", "--rho2=1e-323"]) == 2
        assert capsys.readouterr() == ("", self.message("1.4822e-323"))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a0_that_rounds_to_rho1(self, command, capsys):
        """On this band sin(alpha0) rounds below rho1, which no Lambert cone
        through the parallel rho1 allows; every subcommand names the band."""
        assert main([command, f"--rho1={self.NEAR_POLE[0]!r}",
                     f"--rho2={self.NEAR_POLE[1]!r}"]) == 2
        assert capsys.readouterr() == (
            "", "error: rho1 = 0.9999999999999998 and rho2 = 0.9999999999999999 give the "
            "optimal a0 = 0.9999999999999997 <= rho1 in floating point, a cone that cannot "
            "touch the parallel rho1; not supported\n")

    def test_near_the_pole_the_other_kinds_still_draw(self, capsys):
        assert main(["project", "--kind", "central", f"--rho1={self.NEAR_POLE[0]!r}",
                     f"--rho2={self.NEAR_POLE[1]!r}"]) == 0
        out = capsys.readouterr()
        assert out.err == "" and out.out.endswith("</svg>\n")

    @pytest.mark.parametrize("band", [(-0.5, 0.3), (-0.3, 0.3), (0.0, 1e-300), (5e-324, 1e-323)])
    def test_every_subcommand_words_the_band_as_optimize_does(self, band, capsys):
        """The Lambert profile is built first, so no other kind's cone words
        the error, as the cylinder message did on (-0.5, 0.3)."""
        args = [f"--rho1={band[0]!r}", f"--rho2={band[1]!r}"]
        assert main(["optimize", *args]) == 2
        want = capsys.readouterr()
        assert want.out == "" and "an upward cone" in want.err
        for command in ("table", "curves", "reproduce", "project"):
            assert main([command, *args]) == 2
            assert capsys.readouterr() == want, command

    @pytest.mark.parametrize(
        "kind", ["central", "delisle", "delisle-equidistant", "orthogonal", "teichmuller"]
    )
    def test_a_cone_through_both_parallels_with_its_apex_at_infinity(self, kind, capsys):
        assert main(["project", "--kind", kind, "--rho1=5e-324", "--rho2=1e-323"]) == 2
        assert capsys.readouterr() == (
            "", "error: rho1 + rho2 = 1.4822e-323 puts the apex of the cone through both "
            "parallels at infinity; not supported\n")

    @pytest.mark.parametrize("kind", ["central", "delisle", "delisle-equidistant", "orthogonal"])
    def test_a_band_whose_graticule_projects_to_no_path(self, kind, capsys):
        """On (0, 1e-300) these kinds' profiles clip every graticule line away:
        an empty map is an error, not a drawing of nothing."""
        assert main(["project", "--kind", kind, "--rho1=0.0", "--rho2=1e-300"]) == 2
        assert capsys.readouterr() == (
            "", "error: rho1 = 0 and rho2 = 1e-300 give a band whose graticule projects to "
            "no path; not supported\n")
