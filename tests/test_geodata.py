import json
import math
import signal

import numpy as np
import pytest

from conicmaps import (
    CurveTable,
    GeoPolyline,
    SphericalAnnulus,
    SvgStyle,
    graticule,
    make_profile,
    parse_geojson_lines,
    project_polylines,
    render_svg,
    write_csv,
    write_svg,
)
from conicmaps.errors import ParseError, ValidationError
from conicmaps.projections import ProjectionParams
from conftest import RHO1, RHO2

PROFILE = make_profile("lambert", ProjectionParams(RHO1, RHO2))
ANNULUS = SphericalAnnulus(RHO1, RHO2)


def feature(geom, name=None):
    props = {"name": name} if name else {}
    return {"type": "Feature", "properties": props, "geometry": geom}


class TestParseGeojson:
    def test_linestring(self):
        doc = json.dumps(
            {"type": "LineString", "coordinates": [[0, 50], [1, 51], [2, 52]]}
        )
        parsed = parse_geojson_lines(doc)
        assert len(parsed.lines) == 1
        assert parsed.lines[0].points == ((0.0, 50.0), (1.0, 51.0), (2.0, 52.0))
        assert parsed.ignored == 0

    def test_multilinestring(self):
        doc = json.dumps(
            {
                "type": "MultiLineString",
                "coordinates": [[[0, 50], [1, 51]], [[2, 52], [3, 53]]],
            }
        )
        parsed = parse_geojson_lines(doc)
        assert len(parsed.lines) == 2

    def test_polygon_ignored_with_count(self):
        doc = json.dumps(
            {
                "type": "FeatureCollection",
                "features": [
                    feature(
                        {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [0, 1]]]}
                    ),
                    feature(
                        {"type": "LineString", "coordinates": [[0, 50], [1, 51]]},
                        name="coast",
                    ),
                ],
            }
        )
        parsed = parse_geojson_lines(doc)
        assert parsed.ignored == 1
        assert len(parsed.lines) == 1
        assert parsed.lines[0].name == "coast"

    def test_malformed_json(self):
        with pytest.raises(ParseError) as err:
            parse_geojson_lines('{"type": "LineString", "coordinates": [[0, 50],')
        assert err.value.line is not None

    def test_out_of_range_names_feature(self):
        doc = json.dumps(
            {
                "type": "FeatureCollection",
                "features": [
                    feature(
                        {"type": "LineString", "coordinates": [[0, 50], [200, 51]]},
                        name="bad-coast",
                    )
                ],
            }
        )
        with pytest.raises(ValidationError, match="bad-coast"):
            parse_geojson_lines(doc)

    def test_too_short_polyline(self):
        doc = json.dumps({"type": "LineString", "coordinates": [[0, 50]]})
        with pytest.raises(ValidationError):
            parse_geojson_lines(doc)


# A valid two-feature collection, and the JSON values that replace each of
# its members in turn: 29 members and 15 values give 435 documents.
_COLLECTION = {
    "type": "FeatureCollection",
    "features": [
        feature({"type": "LineString", "coordinates": [[10.0, 50.0], [20.0, 55.0]]}, "a"),
        feature({"type": "MultiLineString", "coordinates": [[[30.0, 60.0], [40.0, 65.0]]]}, "b"),
    ],
}
_VALUES = (None, True, False, 0, -1, 1.5, "", "x", "LineString", [], [0], [[0, 0]], {},
           {"type": "LineString"}, {"type": "Feature"})


def _members(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _members(child, path + (key,))


def _substituted(*replacements):
    """The collection as JSON text, with each (member, value) replaced."""
    doc = json.loads(json.dumps(_COLLECTION))
    for path, value in replacements:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return json.dumps(doc)


# (member, value as JSON) -> the document's line names, or its exact message.
_NOT_ARRAYS = [v for v in _VALUES if not isinstance(v, list)]
_OUTCOMES = {
    **{(("features",), json.dumps(v)): "document: features is not an array"
       for v in _NOT_ARRAYS if v is not None},
    (("features",), "null"): (),
    (("features",), "[0]"): "feature[0]: missing GeoJSON type",
    **{(("features", 0), json.dumps(v)): "feature[0]: missing GeoJSON type"
       for v in _VALUES if not isinstance(v, dict)},
    **{(("features", 0, "properties"), json.dumps(v)): ("feature[0]", "b[0]") for v in _VALUES},
    **{(("features", 1, "geometry", "coordinates"), json.dumps(v)):
       "b: bad MultiLineString coordinates" for v in _NOT_ARRAYS},
}


@pytest.mark.parametrize("value", _VALUES, ids=json.dumps)
@pytest.mark.parametrize("path", list(_members(_COLLECTION)), ids=lambda p: ".".join(map(str, p)))
def test_a_member_replaced_by_any_json_value_parses_or_raises_a_parse_error(path, value):
    """No GeoJSON document gives a traceback: a ``features`` that is not an
    array is an error, a ``properties`` that is not an object counts as null."""
    try:
        parsed = parse_geojson_lines(_substituted((path, value)))
    except (ParseError, ValidationError) as exc:
        outcome = str(exc)
    else:
        outcome = tuple(line.name for line in parsed.lines)
    expected = _OUTCOMES.get((path, json.dumps(value)))
    assert expected is None or outcome == expected


# Pairs of members where neither contains the other: 308 pairs.  Each pair
# takes the 45 of the 225 value pairs (i, j) with i + j + k divisible by 5,
# k the pair's index, so every value pair recurs across the member pairs.
_MEMBERS = list(_members(_COLLECTION))
_DISJOINT = [
    (a, b) for n, a in enumerate(_MEMBERS) for b in _MEMBERS[n + 1:]
    if a != b[:len(a)] and b != a[:len(b)]
]


def test_two_members_replaced_at_once_parse_or_raise_a_parse_error():
    """13,860 documents with two members changed give no traceback, and
    every vertex parsed from them is finite and in range."""
    assert len(_DISJOINT) == 308
    for k, (a, b) in enumerate(_DISJOINT):
        for i, u in enumerate(_VALUES):
            for j, v in enumerate(_VALUES):
                if (i + j + k) % 5:
                    continue
                try:
                    parsed = parse_geojson_lines(_substituted((a, u), (b, v)))
                except (ParseError, ValidationError):
                    continue
                for line in parsed.lines:
                    for lon, lat in line.points:
                        assert -180.0 <= lon <= 180.0 and -90.0 < lat < 90.0, (a, u, b, v)


class TestGraticule:
    def test_canonical_counts(self):
        grat = graticule(10.0, 5.0, ANNULUS)
        meridians = [g for g in grat if g.name.startswith("meridian")]
        parallels = [g for g in grat if g.name.startswith("parallel")]
        # 36 distinct meridians; the +-180 cut meridian appears on both edges
        assert len(meridians) == 37
        lons = {g.points[0][0] for g in meridians}
        assert len({lon % 360.0 for lon in lons}) == 36
        assert sum(1 for lon in lons if abs(lon) == 180.0) == 2
        # boundary parallels plus interior multiples of 5 degrees
        assert len(parallels) == 5
        interior = [g for g in parallels if g.points[0][1] in (50.0, 55.0, 60.0)]
        assert len(interior) == 3

    def test_band_restriction_and_density(self):
        grat = graticule(10.0, 5.0, ANNULUS)
        lat1 = math.degrees(math.asin(RHO1))
        lat2 = math.degrees(math.asin(RHO2))
        for g in grat:
            lats = [p[1] for p in g.points]
            assert min(lats) >= lat1 - 1e-9
            assert max(lats) <= lat2 + 1e-9
            pts = np.asarray(g.points)
            steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            assert steps.max() <= 0.25 + 1e-9

    def test_degenerate_band(self):
        narrow = SphericalAnnulus(math.sin(math.radians(50.2)), math.sin(math.radians(51.8)))
        grat = graticule(90.0, 5.0, narrow)
        parallels = [g for g in grat if g.name.startswith("parallel")]
        assert len(parallels) == 2  # boundaries only

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            graticule(0.0, 5.0, ANNULUS)
        with pytest.raises(ValueError):
            graticule(10.0, -1.0, ANNULUS)
        with pytest.raises(ValueError):
            graticule(7.0, 5.0, ANNULUS)  # does not divide 360

    @pytest.mark.parametrize("lat_step", [6e-4, 1e-300, 5e-324])
    def test_a_latitude_step_with_over_10000_parallels_is_rejected(self, lat_step):
        # A loop over every multiple of 1e-300 would not return; the alarm
        # turns one into a failure.
        def expire(signum, frame):
            raise TimeoutError("graticule did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError, match=r"^latitude step \S+ gives over 10,000 parallels$"):
                graticule(10.0, lat_step, SphericalAnnulus(0.5, 0.6))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestProjectPolylines:
    def test_parallel_projects_to_arc(self):
        grat = [g for g in graticule(90.0, 5.0, ANNULUS) if g.name == "parallel 55"]
        paths = project_polylines(PROFILE, grat, math.pi).paths
        assert len(paths) == 1
        radii = [math.hypot(x, y) for x, y in paths[0]]
        assert max(radii) - min(radii) <= 1e-9 * max(radii)

    def test_meridian_projects_to_radial_segment(self):
        grat = [g for g in graticule(90.0, 5.0, ANNULUS) if g.name == "meridian 90"]
        paths = project_polylines(PROFILE, grat, math.pi).paths
        assert len(paths) == 1
        pts = np.asarray(paths[0])
        cross = np.abs(pts[:-1, 0] * pts[1:, 1] - pts[:-1, 1] * pts[1:, 0])
        assert cross.max() <= 1e-9

    def test_straddling_cut_splits(self):
        line = GeoPolyline("crossing", [(179.0, 55.0), (-179.0, 55.2)])
        res = project_polylines(PROFILE, [line], math.pi)
        assert len(res.paths) == 2
        # split points land on the two sector edges, mirrored in x
        end_first = res.paths[0][-1]
        start_second = res.paths[1][0]
        assert end_first[0] == pytest.approx(-start_second[0], abs=1e-12)
        assert end_first[1] == pytest.approx(start_second[1], abs=1e-12)

    def test_clipping_to_band(self):
        line = GeoPolyline("meridian piece", [(10.0, 40.0), (10.0, 70.0)])
        res = project_polylines(PROFILE, [line], math.pi)
        assert len(res.paths) == 1
        pts = res.paths[0]
        radii = sorted(math.hypot(x, y) for x, y in pts)
        s_lo = float(PROFILE.s(math.acos(RHO2)))
        s_hi = float(PROFILE.s(math.acos(RHO1)))
        assert radii[0] == pytest.approx(s_lo, rel=1e-9)
        assert radii[-1] == pytest.approx(s_hi, rel=1e-9)

    def test_fully_outside_dropped_and_counted(self):
        line = GeoPolyline("equator", [(0.0, 0.0), (10.0, 0.0)])
        res = project_polylines(PROFILE, [line], math.pi)
        assert res.paths == []
        assert res.dropped == 1


class TestCsv:
    def test_shape_and_content(self, tmp_path):
        table = CurveTable(("a", "b"), [(1.0, 2.0), (3.5, -0.25)])
        path = tmp_path / "t.csv"
        write_csv(table, path)
        text = path.read_bytes().decode()
        lines = text.split("\n")
        assert lines[0] == "a,b"
        assert len(lines) == 4 and lines[3] == ""  # header + 2 rows + final LF
        assert "," in lines[1] and "." in lines[2]
        assert "\r" not in text

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(83)
        values = list(rng.standard_normal(100) * 10.0 ** rng.integers(-12, 12, 100))
        table = CurveTable(("x",), [(v,) for v in values])
        path = tmp_path / "rt.csv"
        write_csv(table, path)
        lines = path.read_text().strip().split("\n")[1:]
        parsed = [float(line) for line in lines]
        assert parsed == values

    def test_rejects_ragged_and_nonfinite(self):
        with pytest.raises(ValueError):
            CurveTable(("a", "b"), [(1.0,)])
        with pytest.raises(ValueError):
            CurveTable(("a",), [(float("nan"),)])


class TestCurveTable:
    @pytest.mark.parametrize(
        "rows", [[(1.0, 2.0), (3.5, -0.25)], [(0.0, 5e-324)], np.arange(6.0).reshape(3, 2)]
    )
    def test_values_are_a_read_only_copy(self, rows):
        table = CurveTable(("a", "b"), rows)
        assert table.values.dtype == np.float64 and table.values.shape == (len(rows), 2)
        assert not table.values.flags.writeable
        with pytest.raises(ValueError):
            table.values[0, 0] = 7.0
        if isinstance(rows, np.ndarray):
            rows[0, 0] = 7.0  # the caller's array stays writable and unshared
            assert table.values[0, 0] == 0.0

    @pytest.mark.parametrize(
        "rows", [[(1.0, 2.0), (3.5, -0.25)], [(-0.0, 1.7976931348623157e308)], []]
    )
    def test_rows_equal_the_input_tuples(self, rows):
        table = CurveTable(("a", "b"), rows)
        assert table.rows == tuple(tuple(r) for r in rows)
        assert all(type(v) is float for r in table.rows for v in r)

    def test_empty_table(self):
        table = CurveTable(("a", "b"), [])
        assert table.values.shape == (0, 2) and table.rows == ()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(1.0,)], "ragged table row"),
            ([(1.0, 2.0), (3.0,)], "ragged table row"),
            (np.zeros((2, 3)), "ragged table row"),
            ([(0.0, float("nan"))], "non-finite table entry"),
            ([(0.0, -math.inf)], "non-finite table entry"),
        ],
    )
    def test_messages(self, rows, message):
        with pytest.raises(ValueError, match=message):
            CurveTable(("a", "b"), rows)


class TestSvg:
    def test_empty_document_valid(self, tmp_path):
        path = tmp_path / "empty.svg"
        write_svg([], SvgStyle(), path)
        text = path.read_text()
        assert text.startswith("<?xml")
        assert "<svg" in text and "</svg>" in text
        assert "viewBox" in text

    def test_one_path_per_polyline(self):
        doc = render_svg(
            [(SvgStyle(), [[(0, 0), (1, 1)], [(0, 1), (1, 0), (2, 2)]])]
        )
        assert doc.count("<path") == 2
        assert 'viewBox="' in doc
        assert "stroke-width" in doc

    def test_deterministic(self):
        layers = [(SvgStyle(stroke="red"), [[(0.1, 0.2), (0.3, 0.4)]])]
        assert render_svg(layers) == render_svg(layers)
