"""Geometry ingestion (GeoJSON subset), graticules, CSV and SVG emission.

Input coordinates are cartographic: longitude degrees in [-180, 180],
latitude degrees in (-90, 90), converted once on projection to the internal
(theta, rho) = (radians(lon) mod 2pi, sin(radians(lat))) coordinates.
Clipping to the annulus and splitting at the cut meridian both happen in
(longitude offset, rho) space, where the boundaries are coordinate-aligned;
only the final step maps to the drawing plane.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .projections import DEFAULT_CUT_LONGITUDE, MeridianProfile
from .sphere import SphericalAnnulus

# Densification ceiling for generated polylines, in degrees of arc.
_MAX_VERTEX_SPACING_DEG = 0.25

# The JSON value types accepted as a coordinate; bool is excluded although it
# is an int subclass.
_JSON_NUMBERS = (int, float)


@dataclass(frozen=True)
class GeoPolyline:
    """Named sequence of (longitude, latitude) vertices, in degrees."""

    name: str
    points: tuple

    def __post_init__(self):
        pts = tuple((float(lon), float(lat)) for lon, lat in self.points)
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


@dataclass
class ParsedLines:
    """Polylines extracted from a GeoJSON document plus a count of ignored
    non-line geometries."""

    lines: list
    ignored: int


@dataclass(frozen=True)
class CurveTable:
    """Rectangular numeric table with named columns.

    ``rows`` may be any sequence of rows or a 2-D array; it is stored as a
    tuple of tuples of floats.
    """

    columns: tuple
    rows: tuple

    def __post_init__(self):
        cols = tuple(str(c) for c in self.columns)
        try:
            values = np.array(self.rows, dtype=float)
        except ValueError as exc:
            raise ValueError("ragged table row") from exc
        if len(values) == 0:
            values = values.reshape(0, len(cols))
        if values.shape[1:] != (len(cols),):
            raise ValueError("ragged table row")
        if not np.isfinite(values).all():
            raise ValueError("non-finite table entry")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "rows", tuple(map(tuple, values.tolist())))


@dataclass(frozen=True)
class SvgStyle:
    stroke: str = "black"
    stroke_width: float = 0.002


def _feature_name(obj: dict, index: int) -> str:
    props = obj.get("properties") or {}
    name = props.get("name") or props.get("NAME")
    return str(name) if name else f"feature[{index}]"


def parse_geojson_lines(document: str) -> ParsedLines:
    """Extract LineString / MultiLineString geometries from a GeoJSON text.

    Feature and FeatureCollection wrappers are accepted; any other geometry
    type is skipped and counted in ``ignored``.  Coordinate order is
    (longitude, latitude); extra vertex dimensions are dropped.
    """
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
        pts = []
        for c in coords:
            if not (
                type(c) is list
                and len(c) >= 2
                and type(c[0]) in _JSON_NUMBERS
                and type(c[1]) in _JSON_NUMBERS
            ):
                raise ValidationError(f"{name}: bad coordinate {c!r:.60}")
            try:
                pts.append((float(c[0]), float(c[1])))
            except OverflowError as exc:
                raise ValidationError(f"{name}: coordinate {c!r:.60} out of range") from exc
        return GeoPolyline(name, pts)

    def walk(node, name):
        ntype = node.get("type") if isinstance(node, dict) else None
        if ntype == "FeatureCollection":
            for i, feat in enumerate(node.get("features") or []):
                walk(feat, _feature_name(feat, i) if isinstance(feat, dict) else name)
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


def _frange_inclusive(lo: float, hi: float, max_step: float) -> list[float]:
    n = max(1, math.ceil((hi - lo) / max_step - 1e-9))
    return [lo + (hi - lo) * i / n for i in range(n + 1)]


def graticule(
    lon_step: float, lat_step: float, annulus: SphericalAnnulus
) -> list[GeoPolyline]:
    """Meridian/parallel grid restricted to the annulus' latitude band.

    Meridians run at multiples of ``lon_step`` over the full inclusive range
    [-180, 180], so the +-180 meridian appears twice: once per edge of the
    developed sector.  Parallels sit at the two band boundaries plus every
    multiple of ``lat_step`` strictly inside the band.  All polylines are
    densified to at most 0.25 degrees between vertices.
    """
    if lon_step <= 0.0 or lat_step <= 0.0:
        raise ValueError("graticule steps must be positive")
    if abs(360.0 / lon_step - round(360.0 / lon_step)) > 1e-9:
        raise ValueError(f"longitude step {lon_step} does not divide 360")
    lat1 = math.degrees(math.asin(annulus.rho1))
    lat2 = math.degrees(math.asin(annulus.rho2))

    out: list[GeoPolyline] = []
    lats = _frange_inclusive(lat1, lat2, _MAX_VERTEX_SPACING_DEG)
    n_meridians = round(360.0 / lon_step)
    for k in range(n_meridians + 1):
        lon = -180.0 + k * lon_step
        out.append(GeoPolyline(f"meridian {lon:g}", [(lon, lat) for lat in lats]))

    parallel_lats = [lat1]
    k = math.floor(lat1 / lat_step) + 1
    while k * lat_step < lat2 - 1e-9:
        if k * lat_step > lat1 + 1e-9:
            parallel_lats.append(k * lat_step)
        k += 1
    parallel_lats.append(lat2)
    lons = _frange_inclusive(-180.0, 180.0, _MAX_VERTEX_SPACING_DEG)
    for lat in parallel_lats:
        out.append(GeoPolyline(f"parallel {lat:g}", [(lon, lat) for lon in lons]))
    return out


@dataclass
class ProjectedPaths:
    """Planar polylines ready for drawing, plus the count of input polylines
    clipped away entirely."""

    paths: list
    dropped: int


def _wrap_offset_deg(raw: float) -> float:
    """Wrap a longitude difference into [-180, 180], keeping the sign of an
    exact +-180 so the two edges of the cut stay distinguishable."""
    off = math.fmod(raw, 360.0)
    if off > 180.0:
        off -= 360.0
    elif off < -180.0:
        off += 360.0
    return off


def _split_at_seam(vertices: list) -> list:
    """Split an (offset, rho) vertex chain wherever it crosses offset +-180."""
    pieces = []
    current = [vertices[0]]
    for (o0, r0), (o1, r1) in zip(vertices, vertices[1:]):
        d = o1 - o0
        if abs(d) <= 180.0:
            current.append((o1, r1))
            continue
        # unwrap the far vertex next to the near one, then cut at the seam
        o1u = o1 - math.copysign(360.0, d)
        if o1u == o0:
            # edge-to-edge jump (o0 = +-180, o1 = -+180): same meridian seen
            # from both sides of the cut; continue on the destination edge
            pieces.append(current)
            current = [(o1, r0), (o1, r1)]
            continue
        edge = math.copysign(180.0, o1u - o0)
        t = (edge - o0) / (o1u - o0)
        rc = r0 + t * (r1 - r0)
        current.append((edge, rc))
        pieces.append(current)
        current = [(-edge, rc), (o1, r1)]
    pieces.append(current)
    return [p for p in pieces if len(p) >= 2]


def _clip_to_band(vertices: list, rho_lo: float, rho_hi: float) -> list:
    """Clip an (offset, rho) chain to rho_lo <= rho <= rho_hi, interpolating
    linearly in (offset, rho); may return several pieces."""

    def interp(a, b, rho_c):
        t = (rho_c - a[1]) / (b[1] - a[1])
        return (a[0] + t * (b[0] - a[0]), rho_c)

    pieces = []
    current: list = []
    inside_prev = None
    for i, v in enumerate(vertices):
        inside = rho_lo <= v[1] <= rho_hi
        if i == 0:
            if inside:
                current.append(v)
            inside_prev = inside
            continue
        prev = vertices[i - 1]
        if inside and inside_prev:
            current.append(v)
        elif inside and not inside_prev:
            bound = rho_lo if prev[1] < rho_lo else rho_hi
            current = [interp(prev, v, bound), v]
        elif not inside and inside_prev:
            bound = rho_lo if v[1] < rho_lo else rho_hi
            current.append(interp(prev, v, bound))
            if len(current) >= 2:
                pieces.append(current)
            current = []
        else:
            # both outside; the segment may still cross the whole band
            lo, hi = sorted((prev[1], v[1]))
            if lo < rho_lo and hi > rho_hi:
                a = interp(prev, v, rho_lo)
                b = interp(prev, v, rho_hi)
                pieces.append([a, b] if prev[1] < v[1] else [b, a])
        inside_prev = inside
    if len(current) >= 2:
        pieces.append(current)
    return pieces


def project_polylines(
    profile: MeridianProfile,
    lines: list,
    cut: float = DEFAULT_CUT_LONGITUDE,
) -> ProjectedPaths:
    """Map polylines onto the drawing plane of a projection profile.

    Vertices are converted to (longitude offset from the central meridian,
    rho); chains are split where they cross the cut meridian and clipped to
    the annulus band.  Then one array call of the profile places every
    vertex of a line's pieces.  Input polylines that vanish entirely in
    clipping are dropped and counted.
    """
    center_deg = math.degrees(cut) % 360.0 - 180.0
    sa = profile.sin_alpha
    rho_lo, rho_hi = profile.rho1, profile.rho2

    paths = []
    dropped = 0
    for line in lines:
        chain = [
            (_wrap_offset_deg(lon - center_deg), math.sin(math.radians(lat)))
            for lon, lat in line.points
        ]
        pieces = [
            clipped
            for piece in _split_at_seam(chain)
            for clipped in _clip_to_band(piece, rho_lo, rho_hi)
        ]
        if not pieces:
            dropped += 1
            continue
        off, rho = np.array([v for piece in pieces for v in piece]).T
        slant = profile.s(np.arccos(np.minimum(np.maximum(rho, rho_lo), rho_hi)))
        psi = np.radians(off) * sa
        xs = (slant * np.sin(psi)).tolist()
        ys = (-slant * np.cos(psi)).tolist()
        start = 0
        for piece in pieces:
            stop = start + len(piece)
            paths.append(list(zip(xs[start:stop], ys[start:stop])))
            start = stop
    return ProjectedPaths(paths, dropped)


def _write_text(text: str, dest, what: str) -> None:
    """Write ``text`` to a text stream, or to a file at path ``dest``."""
    if hasattr(dest, "write"):
        dest.write(text)
        return
    try:
        with open(dest, "w", newline="\n", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {dest}: {exc}") from exc


def write_csv(table: CurveTable, dest) -> None:
    """CSV with a header row, '.' decimals, 17 significant digits, LF ends.

    ``dest`` is a path or a text stream.  The 17-digit format makes the
    write/read round trip bit-exact for every IEEE double.
    """
    row_format = ",".join(["%.17g"] * len(table.columns)) + "\n"
    body = "".join([row_format % row for row in table.rows])
    _write_text(",".join(table.columns) + "\n" + body, dest, "CSV")


def render_svg(layer_groups) -> str:
    """Build a standalone SVG 1.1 document from styled path groups.

    ``layer_groups`` is a sequence of (SvgStyle, list-of-paths) pairs; each
    path is a point sequence.  The viewBox is fitted to the geometry with a
    2% margin; output is deterministic for identical input.
    """
    pts = [p for _, paths in layer_groups for path in paths for p in path]
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        min_x, max_x = min(xs), max(xs)
        min_y, max_y = min(ys), max(ys)
    else:
        min_x = min_y = 0.0
        max_x = max_y = 1.0
    span = max(max_x - min_x, max_y - min_y, 1e-9)
    pad = 0.02 * span
    fmt = lambda v: format(v, ".8f")

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{fmt(min_x - pad)} {fmt(min_y - pad)} '
        f'{fmt(max_x - min_x + 2 * pad)} {fmt(max_y - min_y + 2 * pad)}">',
    ]
    for style, paths in layer_groups:
        out.append(
            f'<g fill="none" stroke="{style.stroke}" '
            f'stroke-width="{format(style.stroke_width, ".8g")}">'
        )
        for path in paths:
            d = "M " + " L ".join(f"{fmt(x)} {fmt(y)}" for x, y in path)
            out.append(f'<path d="{d}"/>')
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(paths, style: SvgStyle, dest, overlays=()) -> None:
    """Write polylines as a standalone SVG document to a path or text stream.

    ``overlays`` are further (SvgStyle, paths) groups drawn on top.
    """
    _write_text(render_svg([(style, list(paths)), *overlays]), dest, "SVG")
