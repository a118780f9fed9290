"""Each map vertex is checked once: `parse_geojson_lines` checks a vertex
while it converts it and `graticule` checks its band, whose vertices lie in
range by construction, and both hand `GeoPolyline._checked` what they
checked.  A direct `GeoPolyline(...)` call still converts and checks
everything, so the parser must agree with the two-pass route kept here as
its reference: the type loop, then the checking constructor."""

import ast
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import conicmaps
from conicmaps import GeoPolyline, SphericalAnnulus, graticule, parse_geojson_lines
from conicmaps.errors import ValidationError

SRC = Path(conicmaps.__file__).resolve().parent


def _reference_polyline(name, coords):
    """Check every vertex's JSON types and convert it, then let the checking
    constructor check the floats."""
    if not isinstance(coords, list):
        raise ValidationError(f"{name}: bad coordinate array")
    pts = []
    for c in coords:
        if not (
            type(c) is list
            and len(c) >= 2
            and type(c[0]) in (int, float)
            and type(c[1]) in (int, float)
        ):
            raise ValidationError(f"{name}: bad coordinate {c!r:.60}")
        try:
            pts.append((float(c[0]), float(c[1])))
        except OverflowError as exc:
            raise ValidationError(f"{name}: coordinate {c!r:.60} out of range") from exc
    return GeoPolyline(name, pts)


def _reference_parse(document):
    """The parser's route for the documents built here: a FeatureCollection
    of named LineString and MultiLineString features."""
    lines = []
    for feat in json.loads(document)["features"]:
        name, geom = feat["properties"]["name"], feat["geometry"]
        if geom["type"] == "LineString":
            lines.append(_reference_polyline(name, geom["coordinates"]))
        else:
            for j, part in enumerate(geom["coordinates"]):
                lines.append(_reference_polyline(f"{name}[{j}]", part))
    return lines


def _bits(x):
    return np.array(x, dtype=float).view(np.int64).tolist()


def _outcome(parse, document):
    """The exception's type and message, or each line's name and the bit
    patterns of its points."""
    try:
        lines = parse(document)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(line.name, _bits(line.points)) for line in lines]


def _document(*geometries):
    features = [
        {"type": "Feature", "properties": {"name": f"f{i}"}, "geometry": geom}
        for i, geom in enumerate(geometries)
    ]
    return json.dumps({"type": "FeatureCollection", "features": features})


def _line(*vertices):
    return {"type": "LineString", "coordinates": list(vertices)}


def _assert_agrees(document):
    want = _outcome(_reference_parse, document)
    assert _outcome(lambda doc: parse_geojson_lines(doc).lines, document) == want
    return want


HUGE = 10**400
TINY = 5e-324
CASES = {
    "ints": [_line([10, 50], [20, -55], [-180, 0], [180, 89])],
    "ints and floats": [_line([10, 50.5], [20.25, 55], [0, 0.0])],
    "bool": [_line([10.0, 50.0], [True, 50.0])],
    "bool latitude": [_line([10.0, 50.0], [1.0, False])],
    "null": [_line([10.0, 50.0], [None, 50.0])],
    "string": [_line([10.0, 50.0], [10.0, "50"])],
    "huge int": [_line([10.0, 50.0], [HUGE, 50.0])],
    "huge negative int latitude": [_line([10.0, 50.0], [10.0, -HUGE])],
    "huge int beside a bool": [_line([10.0, 50.0], [HUGE, True])],
    "NaN": [_line([10.0, 50.0], [math.nan, 50.0])],
    "Infinity": [_line([10.0, 50.0], [math.inf, 50.0])],
    "-Infinity": [_line([10.0, 50.0], [10.0, -math.inf])],
    "NaN out of range": [_line([10.0, 95.0], [10.0, math.nan])],
    "edges": [_line([-180.0, -89.99999999999999], [180.0, 89.99999999999999])],
    "longitude past 180": [_line([0.0, 0.0], [180.00000000000003, 0.0])],
    "longitude past -180": [_line([-180.00000000000003, 0.0], [0.0, 0.0])],
    "latitude 90": [_line([0.0, 0.0], [0.0, 90.0])],
    "latitude -90": [_line([0.0, -90], [0.0, 0.0])],
    "negative zeros": [_line([-0.0, -0.0], [0.0, -0.0], [TINY, -TINY])],
    "extra dimensions": [_line([10.0, 50.0, 100.0], [11, 51, "m", None])],
    "too short": [_line([10.0, 50.0], [11.0])],
    "empty vertex": [_line([10.0, 50.0], [])],
    "vertex not a list": [_line([10.0, 50.0], 11.0)],
    "vertex an object": [_line([10.0, 50.0], {"lon": 1, "lat": 2})],
    "no vertices": [_line()],
    "one vertex": [_line([10.0, 50.0])],
    "one bad vertex": [_line([10.0, 95.0])],
    "not a list of vertices": [{"type": "LineString", "coordinates": {"a": 1}}],
    "out of range, then a bad type": [_line([10.0, 95.0], [200.0, 50.0], [10.0, "x"])],
    "out of range, then a huge int": [_line([10.0, 95.0], [HUGE, 50.0])],
    "NaN, then a bool": [_line([math.nan, 50.0], [10.0, 50.0], [True, 1])],
    "a good line, then a bad one": [
        _line([10.0, 50.0], [11.0, 51.0]),
        {"type": "MultiLineString", "coordinates": [[[0, 0], [1, 1]], [[0, 0], [0, 91]]]},
    ],
    "a bad line, then a worse one": [_line([0.0, 95.0], [0.0, 0.0]), _line([None, 0])],
}


@pytest.mark.parametrize("geometries", CASES.values(), ids=CASES)
def test_the_parser_agrees_with_the_two_pass_route(geometries):
    _assert_agrees(_document(*geometries))


def test_the_cases_reach_every_outcome():
    messages = [
        _outcome(_reference_parse, _document(*geometries)) for geometries in CASES.values()
    ]
    errors = " ".join(m[1] for m in messages if isinstance(m, tuple))
    for part in ("bad coordinate", "out of range", "non-finite", "longitude",
                 "latitude", "at least 2 points", "bad coordinate array"):
        assert part in errors
    assert sum(isinstance(m, list) for m in messages) >= 5


# Vertices drawn for the seeded lines: mostly in range, the rest each kind of
# failure and each edge.
_VALUES = [0.0, -0.0, 180.0, -180.0, 89.99999999999999, -89.99999999999999, 12, -7]
_BAD_VALUES = [90.0, -90.0, 180.5, math.nan, math.inf, -math.inf, True, None, "1", HUGE]


def _random_vertex(rng):
    if rng.random() < 0.97:
        lon, lat = rng.uniform(-180.0, 180.0), rng.uniform(-89.9, 89.9)
        if rng.random() < 0.1:
            lon, lat = rng.choice(_VALUES), rng.choice(_VALUES[4:])
        return [lon, lat] + [rng.random()] * rng.choice((0, 0, 0, 1))
    vertex = [rng.uniform(-180.0, 180.0), rng.uniform(-89.9, 89.9)]
    if rng.random() < 0.2:
        return vertex[: rng.choice((0, 1))]
    vertex[rng.choice((0, 1))] = rng.choice(_BAD_VALUES)
    return vertex


@pytest.mark.parametrize("seed", range(4))
def test_seeded_random_lines_agree(seed):
    rng = random.Random(f"checked-vertices-{seed}")
    parsed = 0
    for _ in range(150):
        geometries = []
        for _ in range(rng.choice((1, 2, 3))):
            lines = [[_random_vertex(rng) for _ in range(rng.choice((0, 1, 2, 5, 40)))]
                     for _ in range(rng.choice((1, 2)))]
            if len(lines) == 1:
                geometries.append(_line(*lines[0]))
            else:
                geometries.append({"type": "MultiLineString", "coordinates": lines})
        parsed += isinstance(_assert_agrees(_document(*geometries)), list)
    assert 10 <= parsed <= 140  # both outcomes are exercised


def test_parsed_points_are_a_tuple_of_float_pairs():
    doc = _document(_line([10, 50], [20.5, -55], [-0.0, 0]), _line([1, 2], [3, 4]))
    for line in parse_geojson_lines(doc).lines:
        assert type(line.points) is tuple
        for vertex in line.points:
            assert type(vertex) is tuple and [type(v) for v in vertex] == [float, float]


def test_graticule_points_are_read_only():
    lines = graticule(10.0, 5.0, SphericalAnnulus(0.737277, 0.887011))
    for line in lines:
        assert isinstance(line.points, np.ndarray) and line.points.shape[1:] == (2,)
        assert line.points.dtype == np.float64 and not line.points.flags.writeable
        with pytest.raises(ValueError):
            line.points[0, 0] = 0.0


def test_a_graticule_out_of_range_is_worded_by_the_band_check():
    # no annulus reaches the pole; a stand-in with rho2 = 1 would put lat2 at 90
    with pytest.raises(ValueError, match=r"^need -1 < rho1 < rho2 < 1, got \(0\.5, 1\.0\)$"):
        graticule(10.0, 5.0, SimpleNamespace(rho1=0.5, rho2=1.0))


def test_every_step_that_divides_360_gives_meridians_from_minus_to_plus_180():
    # 360/n overshoots 180 in n * (360/n) for 34 of these n
    annulus = SphericalAnnulus(0.5, 0.5001)
    for n in range(1, 2001):
        meridians = [line.points for line in graticule(360.0 / n, 5.0, annulus)[: n + 1]]
        lons = np.array([points[0, 0] for points in meridians])
        assert len(lons) == n + 1 and lons[0] == -180.0 and lons[-1] == 180.0
        assert ((-180.0 <= lons) & (lons <= 180.0)).all()


def test_steps_that_do_not_divide_360_are_rejected():
    annulus = SphericalAnnulus(0.5, 0.6)
    for step in (7.0, 720.0, 1e12, math.inf):
        with pytest.raises(ValueError, match="does not divide 360"):
            graticule(step, 5.0, annulus)


def _users_of(attribute):
    """Top-level functions and classes of `conicmaps` that name ``X.<attribute>``."""
    users = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(isinstance(n, ast.Attribute) and n.attr == attribute for n in ast.walk(node)):
                users.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    return users


def test_only_the_parser_and_the_graticule_use_the_checked_constructor():
    assert _users_of("_checked") == {"geodata.parse_geojson_lines", "geodata.graticule"}
