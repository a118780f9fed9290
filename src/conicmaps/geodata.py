"""Geometry ingestion (GeoJSON subset), graticules, CSV and SVG emission.

Input coordinates are cartographic: longitude degrees in [-180, 180],
latitude degrees in (-90, 90), converted once on projection to the internal
(theta, rho) = (radians(lon) mod 2pi, sin(radians(lat))) coordinates.
A polyline's vertices are a tuple of (lon, lat) tuples, as parsed from
GeoJSON, or a read-only (n, 2) array, as the graticule builds them; each
vertex is checked once.  Clipping to the annulus and splitting at the
cut meridian both happen in (longitude offset, rho) space, where the
boundaries are coordinate-aligned; only the final step maps to the drawing
plane.  Every stage is an array call over the vertices of all lines at once.
The numbers of the CSV and SVG text come from the array decimal writer of
``decimals``, byte for byte what ``'%.17g' % v`` and ``'%.8f' % v`` give.
"""

from __future__ import annotations

import math
from itertools import chain, groupby

import numpy as np

from .decimals import decimal_chunks
from .errors import ParseError, ValidationError
from .projections import DEFAULT_CUT_LONGITUDE, MeridianProfile
from .sphere import SphericalAnnulus, _Record

# Densification ceiling for generated polylines, in degrees of arc.
_MAX_VERTEX_SPACING_DEG = 0.25
_MAX_PARALLELS = 10_000  # inner parallels of a graticule, so a tiny lat_step fails fast

# The JSON value types accepted as a coordinate; bool is excluded although it
# is an int subclass.
_JSON_NUMBERS = (int, float)


class GeoPolyline(_Record, eq=False):
    """Named sequence of (longitude, latitude) vertices, in degrees.

    ``points`` is a sequence of pairs, stored as a tuple of float tuples, or
    an (n, 2) array, stored as a read-only float64 copy and checked in array
    calls.  Both forms reject the same input with the same message, naming
    the first bad vertex; ``_checked`` stores 2 or more vertices checked in
    that stored form as they are.  Polylines compare by identity.
    """

    name: str
    points: tuple | np.ndarray

    @classmethod
    def _checked(cls, name: str, points) -> GeoPolyline:
        line = object.__new__(cls)
        line.__dict__.update(name=name, points=points)
        return line

    def __post_init__(self):
        try:
            if isinstance(self.points, np.ndarray):
                pts = np.array(self.points, dtype=float)
                if pts.ndim == 0 or (len(pts) and pts.shape[1:] != (2,)):
                    raise ValueError("not an (n, 2) array")
            else:
                pts = tuple((float(lon), float(lat)) for lon, lat in self.points)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"{self.name}: vertices must be (longitude, latitude) pairs of numbers"
            ) from exc
        if len(pts) < 2:
            raise ValidationError(f"{self.name}: a polyline needs at least 2 points")
        vertices = pts
        if isinstance(pts, np.ndarray):
            pts.flags.writeable = False
            vertices = pts[~_inside(pts)][:1].tolist()  # the loop below words it
        for lon, lat in vertices:
            if not (math.isfinite(lon) and math.isfinite(lat)):
                raise ValidationError(f"{self.name}: non-finite coordinate")
            if not -180.0 <= lon <= 180.0:
                raise ValidationError(f"{self.name}: longitude {lon} out of range")
            if not -90.0 < lat < 90.0:
                raise ValidationError(f"{self.name}: latitude {lat} out of range")
        object.__setattr__(self, "points", pts)


def _inside(pts: np.ndarray) -> np.ndarray:
    """Which vertices of a (..., 2) array are in range; NaN fails both tests."""
    lon, lat = pts.T
    return (np.abs(lon) <= 180.0) & (np.abs(lat) < 90.0)


class ParsedLines(_Record):
    """Polylines extracted from a GeoJSON document plus a count of ignored
    non-line geometries."""

    lines: list
    ignored: int


class CurveTable(_Record, eq=False):
    """Rectangular numeric table with named columns.

    ``values`` may be any sequence of rows or a 2-D array; it is stored as a
    read-only float64 array of shape (rows, columns).  Tables compare by
    identity; compare ``rows`` for their content.
    """

    columns: tuple
    values: np.ndarray

    def __post_init__(self):
        cols = tuple(str(c) for c in self.columns)
        try:
            values = np.array(self.values, dtype=float)
        except ValueError as exc:
            raise ValueError("ragged table row") from exc
        if len(values) == 0:
            values = values.reshape(0, len(cols))
        if values.shape[1:] != (len(cols),):
            raise ValueError("ragged table row")
        if not np.isfinite(values).all():
            raise ValueError("non-finite table entry")
        values.flags.writeable = False
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "values", values)

    @property
    def rows(self) -> tuple:
        """The values as a tuple of row tuples."""
        return tuple(map(tuple, self.values.tolist()))


class SvgStyle(_Record):
    stroke: str = "black"
    stroke_width: float = 0.002


def _feature_name(obj, index: int) -> str:
    """A member's name: its properties' name, else ``feature[index]``; a
    member or ``properties`` that is not an object has no properties."""
    props = obj.get("properties") if isinstance(obj, dict) else None
    props = props if isinstance(props, dict) else {}
    name = props.get("name") or props.get("NAME")
    return str(name) if name else f"feature[{index}]"


def parse_geojson_lines(document: str) -> ParsedLines:
    """Extract LineString / MultiLineString geometries from a GeoJSON text.

    Feature and FeatureCollection wrappers are accepted; any other geometry
    type is skipped and counted in ``ignored``.  Coordinate order is
    (longitude, latitude); extra vertex dimensions are dropped.
    """
    import json  # only GeoJSON input needs it
    try:
        obj = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except (RecursionError, ValueError) as exc:  # nesting too deep, huge integer
        raise ParseError(f"malformed JSON: {exc}") from exc

    lines: list[GeoPolyline] = []
    ignored = 0

    def add_geometry(geom, name):
        nonlocal ignored
        if not isinstance(geom, dict):
            raise ValidationError(f"{name}: geometry is not an object")
        gtype = geom.get("type")
        coords = geom.get("coordinates")
        if gtype == "LineString":
            lines.append(_polyline(name, coords))
        elif gtype == "MultiLineString":
            if not isinstance(coords, list):
                raise ValidationError(f"{name}: bad MultiLineString coordinates")
            for j, part in enumerate(coords):
                lines.append(_polyline(f"{name}[{j}]", part))
        else:
            ignored += 1

    def _polyline(name, coords):
        if not isinstance(coords, list):
            raise ValidationError(f"{name}: bad coordinate array")
        pts, inside = [], True
        for c in coords:
            if type(c) is not list or len(c) < 2:
                raise ValidationError(f"{name}: bad coordinate {c!r:.60}")
            lon, lat = c[0], c[1]
            if type(lon) is not float or type(lat) is not float:
                if type(lon) not in _JSON_NUMBERS or type(lat) not in _JSON_NUMBERS:
                    raise ValidationError(f"{name}: bad coordinate {c!r:.60}")
                try:
                    lon, lat = float(lon), float(lat)
                except OverflowError as exc:
                    raise ValidationError(f"{name}: coordinate {c!r:.60} out of range") from exc
            inside = inside and -180.0 <= lon <= 180.0 and -90.0 < lat < 90.0  # NaN fails
            pts.append((lon, lat))
        make = GeoPolyline._checked if inside and len(pts) >= 2 else GeoPolyline
        return make(name, tuple(pts))  # GeoPolyline words a failure

    def walk(node, name):
        ntype = node.get("type") if isinstance(node, dict) else None
        if ntype == "FeatureCollection":
            features = node.get("features")
            if not isinstance(features, (list, type(None))):
                raise ValidationError(f"{name}: features is not an array")
            for i, feat in enumerate(features or []):
                walk(feat, _feature_name(feat, i))
        elif ntype == "Feature":
            geom = node.get("geometry")
            if geom is not None:
                add_geometry(geom, name)
        elif ntype is not None:
            add_geometry(node, name)
        else:
            raise ValidationError(f"{name}: missing GeoJSON type")

    walk(obj, "document")
    return ParsedLines(lines, ignored)


def _frange_inclusive(lo: float, hi: float, max_step: float) -> np.ndarray:
    n = max(1, math.ceil((hi - lo) / max_step - 1e-9))
    return lo + (hi - lo) * np.arange(n + 1) / n


def graticule(
    lon_step: float, lat_step: float, annulus: SphericalAnnulus
) -> list[GeoPolyline]:
    """Meridian/parallel grid restricted to the annulus' latitude band.

    Meridians run at multiples of ``lon_step`` over the full inclusive range
    [-180, 180], so the +-180 meridian appears twice: once per edge of the
    developed sector.  Parallels sit at the two band boundaries plus every
    multiple of ``lat_step`` strictly inside the band, at most 10,000 of
    them.  All polylines are densified to at most 0.25 degrees between
    vertices; their points are the rows of one read-only array per family,
    built by broadcasting and checked once.
    """
    if lon_step <= 0.0 or lat_step <= 0.0:
        raise ValueError("graticule steps must be positive")
    if (n := round(360.0 / lon_step)) < 1 or abs(360.0 / lon_step - n) > 1e-9:
        raise ValueError(f"longitude step {lon_step} does not divide 360")
    lat1 = math.degrees(math.asin(annulus.rho1))
    lat2 = math.degrees(math.asin(annulus.rho2))
    if (lat2 - lat1) / lat_step > _MAX_PARALLELS:
        raise ValueError(f"latitude step {lat_step} gives over {_MAX_PARALLELS:,} parallels")

    meridian_lons = -180.0 + np.arange(n + 1) * lon_step
    meridian_lons[-1] = 180.0  # n * lon_step can round past 360
    lats = _frange_inclusive(lat1, lat2, _MAX_VERTEX_SPACING_DEG)

    # k * lat_step >= lat2 - 1e-9 for every k from ceil(lat2 / lat_step) on.
    multiples = np.arange(math.floor(lat1 / lat_step) + 1, math.ceil(lat2 / lat_step)) * lat_step
    inner = multiples[(multiples > lat1 + 1e-9) & (multiples < lat2 - 1e-9)]
    parallel_lats = [lat1, *inner.tolist(), lat2]
    lons = _frange_inclusive(-180.0, 180.0, _MAX_VERTEX_SPACING_DEG)

    meridians = np.stack(np.broadcast_arrays(meridian_lons[:, None], lats), axis=-1)
    parallels = np.stack(np.broadcast_arrays(lons, np.array(parallel_lats)[:, None]), axis=-1)
    meridians.flags.writeable = parallels.flags.writeable = False
    checked = _inside(meridians).all() and _inside(parallels).all()
    make = GeoPolyline._checked if checked else GeoPolyline  # which words a failure
    return [
        make(f"meridian {lon:g}", pts) for lon, pts in zip(meridian_lons.tolist(), meridians)
    ] + [make(f"parallel {lat:g}", pts) for lat, pts in zip(parallel_lats, parallels)]


class ProjectedPaths(_Record):
    """Planar polylines ready for drawing, plus the count of input polylines
    clipped away entirely."""

    paths: list
    dropped: int


def project_polylines(
    profile: MeridianProfile,
    lines: list,
    cut: float = DEFAULT_CUT_LONGITUDE,
) -> ProjectedPaths:
    """Map polylines onto the drawing plane of a projection profile.

    The vertices of all lines are gathered into flat (longitude offset from
    the central meridian, rho) arrays, array-valued lines with one
    concatenate.  A segment whose offset jumps by more than 180 degrees
    crosses the cut meridian and is split at the sector edge; the pieces are
    then clipped to the annulus band, interpolating linearly in (offset,
    rho).  The splits, the clip and the placement on the
    plane are each a few array calls over every vertex at once, with one
    call of the profile; no Python loop runs over vertices.  Each path is an
    (n, 2) view of one array.  Input polylines that vanish entirely in
    clipping are dropped and counted.
    """
    if not lines:
        return ProjectedPaths([], 0)
    center_deg = math.degrees(cut) % 360.0 - 180.0
    lo, hi = profile.rho1, profile.rho2
    points = [line.points for line in lines]
    counts = np.fromiter(map(len, points), dtype=np.intp, count=len(points))
    # Array lines go in as they are; each run of tuple lines is read with one
    # np.fromiter, which is cheaper than converting its lines one by one.
    blocks = []
    for is_array, run in groupby(points, key=lambda p: isinstance(p, np.ndarray)):
        if is_array:
            blocks.extend(run)
        else:
            run = list(run)
            flat = np.fromiter(
                chain.from_iterable(chain.from_iterable(run)),
                dtype=float,
                count=2 * sum(map(len, run)),
            )
            blocks.append(flat.reshape(-1, 2))
    lon, lat = np.concatenate(blocks).T
    line_id = np.repeat(np.arange(len(points)), counts)
    first = np.diff(line_id, prepend=-1) != 0  # starts a piece
    # fmod and the shifts are exact; an exact +-180 keeps its sign, so the two
    # edges of the cut stay distinguishable
    off = np.fmod(lon - center_deg, 360.0)
    off = np.where(off > 180.0, off - 360.0, off)
    off = np.where(off < -180.0, off + 360.0, off)
    rho = np.sin(np.radians(lat))

    # Split at the seam: unwrap the far vertex next to the near one and cut
    # at the edge between them (a point on each edge), or, for an edge-to-edge
    # jump (o0 = +-180, o1 = -+180, the same meridian seen from both sides),
    # continue on the destination edge.
    jumps = np.diff(off)
    seam = np.flatnonzero((np.abs(jumps) > 180.0) & ~first[1:])
    o0, r0, o1, r1 = off[seam], rho[seam], off[seam + 1], rho[seam + 1]
    o1u = o1 - np.copysign(360.0, jumps[seam])
    turn = o1u == o0
    over = ~turn
    edge = np.copysign(180.0, o1u[over] - o0[over])
    t = (edge - o0[over]) / (o1u[over] - o0[over])
    rc = r0[over] + t * (r1[over] - r0[over])
    at = np.concatenate((seam[over], seam[over], seam[turn])) + 1
    off = np.insert(off, at, np.concatenate((edge, -edge, o1[turn])))
    rho = np.insert(rho, at, np.concatenate((rc, rc, r0[turn])))
    first = np.insert(first, at, np.arange(len(at)) >= len(edge))
    line_id = np.insert(line_id, at, line_id[at - 1])

    # Clip to the band by one rule: a piece keeps its inside vertices, and
    # each segment within a piece gets one boundary point for each band
    # boundary it crosses (none, one, or two when it spans the band).  The
    # first point of a segment that starts outside starts a piece and lies on
    # the boundary beyond the near end; any other lies on the boundary beyond
    # the far end.  A piece of one vertex (an edge-to-edge first segment) is
    # none.  np.repeat lays the points out in segment order, so np.insert
    # keeps a leaving point ahead of the next entering one at the same place.
    below, above = rho < lo, rho > hi
    inside = ~(below | above)
    keep = inside & ~(first & np.roll(first, -1))
    crossed = np.add(below[:-1] != below[1:], above[:-1] != above[1:], dtype=np.intp)
    segs = np.repeat(np.arange(len(crossed)), crossed * ~first[1:])
    starts = (np.diff(segs, prepend=-1) != 0) & ~inside[segs]
    bound = np.where(np.where(starts, below[segs], below[segs + 1]), lo, hi)
    t = (bound - rho[segs]) / (rho[segs + 1] - rho[segs])
    edge_off = off[segs] + t * (off[segs + 1] - off[segs])
    at = np.cumsum(keep)[segs]
    off = np.insert(off[keep], at, edge_off)
    rho = np.insert(rho[keep], at, bound)
    first = np.insert(first[keep], at, starts)

    drawn = np.zeros(len(points), bool)
    drawn[line_id[keep]] = True
    drawn[line_id[segs]] = True
    dropped = len(points) - int(drawn.sum())
    if not len(off):
        return ProjectedPaths([], dropped)
    slant = profile.s(np.arccos(rho))
    psi = np.radians(off) * profile.sin_alpha
    xy = np.column_stack((slant * np.sin(psi), -slant * np.cos(psi)))
    return ProjectedPaths(np.split(xy, np.flatnonzero(first)[1:]), dropped)


def _write_text(pieces, dest, what: str) -> None:
    """Write the strings ``pieces`` to a text stream, or to a file at path
    ``dest``."""
    if hasattr(dest, "write"):
        for piece in pieces:
            dest.write(piece)
        return
    try:
        with open(dest, "w", newline="\n", encoding="ascii") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {dest}: {exc}") from exc


def write_csv(table: CurveTable, dest) -> None:
    """CSV with a header row, '.' decimals, 17 significant digits, LF ends.

    ``dest`` is a path or a text stream.  The 17-digit format makes the
    write/read round trip bit-exact for every IEEE double.  The body is
    byte for byte ``'%.17g' % v`` of every value, written chunk by chunk by
    the array decimal writer ``decimal_chunks``.
    """
    ends = np.zeros(table.values.shape, np.uint8)  # a broadcast row's chunks ravel by copying
    ends[:, -1:] = 1
    body = decimal_chunks(table.values, "%.17g", (",", "\n"), ends)
    if not table.columns:  # rows of no values are empty lines
        body = ["\n" * len(table.values)]
    _write_text(chain([",".join(table.columns) + "\n"], body), dest, "CSV")


def render_svg(layer_groups) -> str:
    """Build a standalone SVG 1.1 document from styled path groups.

    ``layer_groups`` is a sequence of (SvgStyle, list-of-paths) pairs; each
    path is an (n, 2) array or a sequence of (x, y) points.  The viewBox is
    fitted to the geometry with a 2% margin; output is deterministic for
    identical input.  Every coordinate is byte for byte ``'%.8f' % v``;
    the coordinates of all paths are written in one call of the array
    decimal writer ``decimal_chunks``, one line a path.
    """
    groups = [
        (style, [np.asarray(path, dtype=float).reshape(-1, 2) for path in paths])
        for style, paths in layer_groups
    ]
    paths = [path for _, group in groups for path in group]
    pts = np.concatenate(paths or [np.empty((0, 2))])
    if len(pts):
        # One reduction a column: numpy reduces axis 0 of an (n, 2) array
        # two values at a time, about ten times slower.
        min_x, min_y = (float(column.min()) for column in pts.T)
        max_x, max_y = (float(column.max()) for column in pts.T)
    else:
        min_x = min_y = 0.0
        max_x = max_y = 1.0
    span = max(max_x - min_x, max_y - min_y, 1e-9)
    pad = 0.02 * span
    box = (min_x - pad, min_y - pad, max_x - min_x + 2 * pad, max_y - min_y + 2 * pad)

    # x ends with " ", y with " L ", the last y of a path with a newline;
    # a path of no points has no line of its own and is written empty.
    ends = np.tile(np.array([0, 1], np.uint8), (len(pts), 1))
    counts = np.array([len(path) for path in paths], np.intp)
    ends[np.cumsum(counts)[counts > 0] - 1, 1] = 2
    coords = "".join(decimal_chunks(pts, "%.8f", (" ", " L ", "\n"), ends))
    coords = iter(coords.split("\n"))
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="%.8f %.8f %.8f %.8f">' % box,
    ]
    for style, group in groups:
        out.append(
            f'<g fill="none" stroke="{style.stroke}" '
            f'stroke-width="{format(style.stroke_width, ".8g")}">'
        )
        out.extend(
            '<path d="M ' + (next(coords) if len(path) else "") + '"/>' for path in group
        )
        out.append("</g>")
    out += ["</svg>", ""]
    return "\n".join(out)


def write_svg(paths, style: SvgStyle, dest, overlays=()) -> None:
    """Write polylines as a standalone SVG document to a path or text stream.

    ``overlays`` are further (SvgStyle, paths) groups drawn on top.
    """
    _write_text([render_svg([(style, list(paths)), *overlays])], dest, "SVG")
