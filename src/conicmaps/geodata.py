"""Geometry ingestion (GeoJSON subset), graticules, CSV and SVG emission.

Input coordinates are cartographic: longitude degrees in [-180, 180],
latitude degrees in (-90, 90), converted once on projection to the internal
(theta, rho) = (radians(lon) mod 2pi, sin(radians(lat))) coordinates.
A polyline's vertices are a tuple of (lon, lat) tuples, as parsed from
GeoJSON, each vertex checked once, or a read-only (n, 2) array, as the
graticule builds them in range from a checked band.  Clipping to the
annulus and splitting at the cut meridian both happen in (longitude offset,
rho) space, where the boundaries are coordinate-aligned; only the final
step maps to the drawing plane.  Every stage is an array call over the vertices of all lines at once,
except for a graticule: its vertices lie in the band by construction, its
meridians share their latitudes and its parallels their longitudes, so it
is projected by that product structure, with each distinct longitude,
latitude and offset evaluated once and nothing clipped.
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
from .sphere import SphericalAnnulus, _check_band, _Record

# Densification ceiling for generated polylines, in degrees of arc.
_MAX_VERTEX_SPACING_DEG = 0.25
_MAX_PARALLELS = 10_000  # inner parallels of a graticule, so a tiny lat_step fails fast

# The JSON value types accepted as a coordinate; bool is excluded although it
# is an int subclass.
_JSON_NUMBERS = (int, float)


class GeoPolyline(_Record, eq=False):
    """Named sequence of (longitude, latitude) vertices, in degrees.

    ``points`` is a sequence of pairs, stored as a tuple of float tuples and
    checked vertex by vertex; the first bad vertex is named.  ``_checked``
    stores points already checked as they are: the parser's tuples, or the
    graticule's read-only (n, 2) array rows.  Polylines compare by identity.
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
            pts = tuple((float(lon), float(lat)) for lon, lat in self.points)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"{self.name}: vertices must be (longitude, latitude) pairs of numbers"
            ) from exc
        if len(pts) < 2:
            raise ValidationError(f"{self.name}: a polyline needs at least 2 points")
        for lon, lat in pts:
            if not (math.isfinite(lon) and math.isfinite(lat)):
                raise ValidationError(f"{self.name}: non-finite coordinate")
            if not -180.0 <= lon <= 180.0:
                raise ValidationError(f"{self.name}: longitude {lon} out of range")
            if not -90.0 < lat < 90.0:
                raise ValidationError(f"{self.name}: latitude {lat} out of range")
        object.__setattr__(self, "points", pts)


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
    values = lo + (hi - lo) * np.arange(n + 1) / n
    values[-1] = hi  # lo + (hi - lo) can round past hi
    return values


def _edge_latitude(rho: float, inward: float) -> float:
    """The double nearest degrees(asin(rho)) whose height sin(radians(lat)),
    as the projection takes it, is not beyond the band edge rho: stepped one
    double at a time towards ``inward`` (90 or -90) while it is."""
    lat = math.degrees(math.asin(rho))
    while (np.sin(np.radians(lat)) - rho) * inward < 0.0:
        lat = math.nextafter(lat, inward)
    return lat


class Graticule(list):
    """The polylines of :func:`graticule`, plus the four axes they were built
    from: meridian ``k`` runs along ``meridian_lons[k]`` through every one of
    ``meridian_lats``, and parallel ``k`` along ``parallel_lats[k]`` through
    every one of ``parallel_lons``.

    ``project_polylines`` projects an unchanged Graticule whose vertices lie
    in the profile's band by this product structure, with the same paths as
    its list.  Once its items change it is a list of lines like any other,
    as are its slices and sums.
    """

    def __init__(self, lines, meridian_lons, meridian_lats, parallel_lats, parallel_lons):
        super().__init__(lines)
        self._built = tuple(lines)
        self.meridian_lons, self.meridian_lats = meridian_lons, meridian_lats
        self.parallel_lats, self.parallel_lons = parallel_lats, parallel_lons

    def _unchanged(self) -> bool:
        """Whether the items are still the lines it was built with."""
        return tuple(self) == self._built  # polylines compare by identity

    def _in_band(self, lo: float, hi: float) -> bool:
        """Whether every vertex's height lies in [lo, hi]; the meridians run
        from the lowest latitude to the highest."""
        low, high = np.sin(np.radians(self.meridian_lats[[0, -1]])).tolist()
        return lo <= low and high <= hi


def graticule(lon_step: float, lat_step: float, annulus: SphericalAnnulus) -> Graticule:
    """Meridian/parallel grid restricted to the annulus' latitude band.

    Meridians run at multiples of ``lon_step`` over the full inclusive range
    [-180, 180], so the +-180 meridian appears twice: once per edge of the
    developed sector.  Parallels sit at the two band boundaries plus every
    multiple of ``lat_step`` strictly inside the band, at most 10,000 of
    them.  A boundary latitude is the double nearest degrees(asin(rho))
    whose height lies in the band, and the meridians end on the two, so
    every vertex's height lies in [rho1, rho2].  All polylines are densified
    to at most 0.25 degrees between vertices; their points are the rows of
    one read-only array per family, built by broadcasting from the four
    read-only axes the returned :class:`Graticule` keeps.  Only the band is
    checked: its vertices lie in range by construction.
    """
    _check_band(annulus.rho1, annulus.rho2)
    if lon_step <= 0.0 or lat_step <= 0.0:
        raise ValueError("graticule steps must be positive")
    if (n := round(360.0 / lon_step)) < 1 or abs(360.0 / lon_step - n) > 1e-9:
        raise ValueError(f"longitude step {lon_step} does not divide 360")
    lat1, lat2 = _edge_latitude(annulus.rho1, 90.0), _edge_latitude(annulus.rho2, -90.0)
    if (lat2 - lat1) / lat_step > _MAX_PARALLELS:
        raise ValueError(f"latitude step {lat_step} gives over {_MAX_PARALLELS:,} parallels")

    meridian_lons = -180.0 + np.arange(n + 1) * lon_step
    meridian_lons[-1] = 180.0  # n * lon_step can round past 360
    lats = _frange_inclusive(lat1, lat2, _MAX_VERTEX_SPACING_DEG)

    # k * lat_step >= lat2 - 1e-9 for every k from ceil(lat2 / lat_step) on.
    multiples = np.arange(math.floor(lat1 / lat_step) + 1, math.ceil(lat2 / lat_step)) * lat_step
    inner = multiples[(multiples > lat1 + 1e-9) & (multiples < lat2 - 1e-9)]
    parallel_lats = np.array([lat1, *inner.tolist(), lat2])
    lons = _frange_inclusive(-180.0, 180.0, _MAX_VERTEX_SPACING_DEG)

    meridians = np.stack(np.broadcast_arrays(meridian_lons[:, None], lats), axis=-1)
    parallels = np.stack(np.broadcast_arrays(lons, parallel_lats[:, None]), axis=-1)
    for array in (meridians, parallels, meridian_lons, lats, parallel_lats, lons):
        array.flags.writeable = False
    make = GeoPolyline._checked
    lines = [
        make(f"meridian {lon:g}", pts) for lon, pts in zip(meridian_lons.tolist(), meridians)
    ] + [make(f"parallel {lat:g}", pts) for lat, pts in zip(parallel_lats.tolist(), parallels)]
    return Graticule(lines, meridian_lons, lats, parallel_lats, lons)


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
    rho).  The splits, the clip and the placement on the plane are each a
    few array calls over every vertex at once, with one call of the profile;
    no Python loop runs over vertices.  An unchanged :class:`Graticule` of
    the profile's band is projected by its product structure instead, with
    the same paths and none dropped (see :func:`_project_graticule`).  Each path is an (n, 2)
    view of one array.  Input polylines that vanish entirely in clipping are
    dropped and counted.
    """
    if not lines:
        return ProjectedPaths([], 0)
    center_deg = math.degrees(cut) % 360.0 - 180.0
    if isinstance(lines, Graticule) and lines._unchanged() and lines._in_band(
        profile.rho1, profile.rho2
    ):
        return _project_graticule(profile, lines, center_deg)
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
    off, rho, first, at = _split_at_seam(_wrap(lon, center_deg), np.sin(np.radians(lat)), first)
    line_id = np.insert(line_id, at, line_id[at - 1])
    off, rho, first, keep, segs = _clip(off, rho, first, profile.rho1, profile.rho2)

    drawn = np.zeros(len(points), bool)
    drawn[line_id[keep]] = True
    drawn[line_id[segs]] = True
    dropped = len(points) - int(drawn.sum())
    if not len(off):
        return ProjectedPaths([], dropped)
    slant = profile.s(np.arccos(rho))
    psi = np.radians(off) * profile.sin_alpha
    xy = np.column_stack((slant * np.sin(psi), -slant * np.cos(psi)))
    return ProjectedPaths(_pieces(xy, first), dropped)


def _pieces(xy: np.ndarray, first: np.ndarray) -> list:
    """The rows of ``xy`` as one view per piece; ``first`` marks the rows
    that start one, the first row among them."""
    bounds = np.flatnonzero(first).tolist() + [len(xy)]
    return [xy[a:b] for a, b in zip(bounds, bounds[1:])]


def _wrap(lon: np.ndarray, center_deg: float) -> np.ndarray:
    """Longitude offsets from the central meridian, in [-180, 180].

    fmod and the shifts are exact; an exact +-180 keeps its sign, so the two
    edges of the cut stay distinguishable.
    """
    off = np.fmod(lon - center_deg, 360.0)
    off = np.where(off > 180.0, off - 360.0, off)
    return np.where(off < -180.0, off + 360.0, off)


def _split_at_seam(off, rho, first):
    """Split pieces where they cross the cut meridian.

    Unwrap the far vertex next to the near one and cut at the edge between
    them (a point on each edge), or, for an edge-to-edge jump (o0 = +-180,
    o1 = -+180, the same meridian seen from both sides), continue on the
    destination edge.  Returns the new (off, rho, first) and the input
    positions before which points went in.
    """
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
    return (
        np.insert(off, at, np.concatenate((edge, -edge, o1[turn]))),
        np.insert(rho, at, np.concatenate((rc, rc, r0[turn]))),
        np.insert(first, at, np.arange(len(at)) >= len(edge)),
        at,
    )


def _clip(off, rho, first, lo, hi):
    """Clip pieces to the band lo <= rho <= hi.

    One rule: a piece keeps its inside vertices, and each segment within a
    piece gets one boundary point for each band boundary it crosses (none,
    one, or two when it spans the band).  The first point of a segment that
    starts outside starts a piece and lies on the boundary beyond the near
    end; any other lies on the boundary beyond the far end.  A piece of one
    vertex (an edge-to-edge first segment) is none.  np.repeat lays the
    points out in segment order, so np.insert keeps a leaving point ahead of
    the next entering one at the same place.  Returns the new (off, rho,
    first), the mask of the vertices kept and the segment of each boundary
    point.
    """
    below, above = rho < lo, rho > hi
    inside = ~(below | above)
    keep = inside & ~(first & np.append(first[1:], True))  # a piece ends after the last vertex
    crossed = np.add(below[:-1] != below[1:], above[:-1] != above[1:], dtype=np.intp)
    segs = np.repeat(np.arange(len(crossed)), crossed * ~first[1:])
    starts = (np.diff(segs, prepend=-1) != 0) & ~inside[segs]
    bound = np.where(np.where(starts, below[segs], below[segs + 1]), lo, hi)
    t = (bound - rho[segs]) / (rho[segs + 1] - rho[segs])
    at = np.cumsum(keep)[segs]
    return (
        np.insert(off[keep], at, off[segs] + t * (off[segs + 1] - off[segs])),
        np.insert(rho[keep], at, bound),
        np.insert(first[keep], at, starts),
        keep,
        segs,
    )


def _project_graticule(
    profile: MeridianProfile, grid: Graticule, center_deg: float
) -> ProjectedPaths:
    """``project_polylines`` of an unchanged graticule, by its product
    structure: each meridian has one offset and the meridians share their
    heights, each parallel has one height and the parallels share their
    offsets.

    Every vertex lies in the band (see :func:`graticule`), so nothing is
    clipped and nothing dropped.  Offsets are wrapped once per distinct
    longitude and heights taken once per distinct latitude, and one
    ``profile.s`` call takes every distinct height.  One template parallel
    is split at the seam by the general path's helper; its longitudes step
    by 0.25 degrees, so the split leaves it no piece of one vertex.  sin and
    cos of psi are taken once per meridian and once per offset of the
    template.  Every vertex is placed by broadcasting products of the same
    doubles, so the paths are bit for bit those of the general path.
    """
    n_lons = len(grid.parallel_lons)
    # offsets alone decide the split; the heights it interpolates are not used
    p_off, _, p_first, _ = _split_at_seam(
        _wrap(grid.parallel_lons, center_deg), np.zeros(n_lons), np.arange(n_lons) == 0
    )
    m_rho = np.sin(np.radians(grid.meridian_lats))
    heights = np.sin(np.radians(grid.parallel_lats))
    slant = profile.s(np.arccos(np.concatenate((m_rho, heights))))
    m_slant, p_slant = slant[: len(m_rho)], slant[len(m_rho):, None]
    m_psi = np.radians(_wrap(grid.meridian_lons, center_deg))[:, None] * profile.sin_alpha
    p_psi = np.radians(p_off) * profile.sin_alpha

    rows, cols = len(grid.meridian_lons), len(m_rho)
    xy = np.empty((rows * cols + len(heights) * len(p_off), 2))
    meridians = xy[: rows * cols].reshape(rows, cols, 2)
    parallels = xy[rows * cols:].reshape(len(heights), len(p_off), 2)
    np.multiply(m_slant, np.sin(m_psi), out=meridians[..., 0])
    np.multiply(-m_slant, np.cos(m_psi), out=meridians[..., 1])
    np.multiply(p_slant, np.sin(p_psi), out=parallels[..., 0])
    np.multiply(-p_slant, np.cos(p_psi), out=parallels[..., 1])
    first = np.concatenate((np.tile(np.arange(cols) == 0, rows), np.tile(p_first, len(heights))))
    return ProjectedPaths(_pieces(xy, first), 0)


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


def write_svg(paths, style: SvgStyle, dest) -> None:
    """Write polylines as a standalone SVG document to a path or text stream."""
    _write_text([render_svg([(style, list(paths))])], dest, "SVG")
