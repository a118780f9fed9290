"""Seeded inputs of the three workloads.

A workload is a *round*: a fixed list of operations, each one or more
`conicmaps` argv lists that run back to back.  Every run of the benchmark
repeats whole rounds, so the mix of operations (and the share of expected
failures) is the same in every run, whatever the seed or the run length.
The seed only changes the numbers inside the operations: bands, cuts and
the coastline's coordinates.  The first operation of every round has the
same shape for every seed, because it is the one a fresh interpreter times.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

CANONICAL = (0.737277, 0.887011)

# Bands on which `table` dies with an OverflowError in
# `conformal.lambert_chart` (the unused r_norm overflows when the optimal
# sin(alpha) is tiny).  They do not depend on the seed, so the failure share
# is the same in every run.
OVERFLOW_BANDS = ((-0.2486, 0.2532), (-0.1778, 0.1804))

MAP_KINDS = (
    "lambert",
    "central",
    "delisle",
    "delisle-equidistant",
    "orthogonal",
    "teichmuller",
)

CURVES_SAMPLES = 1201
SCAN_SAMPLES = 12001

# Make-up of the synthetic coastline; the counts are fixed, only the
# coordinates depend on the seed.
RING_VERTICES = 1441
ISLANDS = 4
ISLAND_VERTICES = 121
OUTSIDE_VERTICES = 200
NON_LINE_FEATURES = 3  # Point, Polygon, MultiPoint: ignored by the parser
LINES_OUTSIDE_BAND = 1  # dropped by project_polylines


@dataclass(frozen=True)
class Op:
    """One operation: argv lists run back to back as one timed unit."""

    kind: str  # "project", "band" or "curves"
    argvs: tuple
    band: tuple
    expect_error: str | None = None  # exception type name of a known fault
    map_kind: str | None = None
    cut: float | None = None


def _band_args(band):
    return [f"--rho1={band[0]!r}", f"--rho2={band[1]!r}"]


def _r6(x: float) -> float:
    return round(x, 6)


def narrow_band(rng: random.Random) -> tuple:
    center = rng.uniform(0.2, 0.8)
    width = 10.0 ** rng.uniform(-3.0, -2.0)
    return (_r6(center - 0.5 * width), _r6(center + 0.5 * width))


def wide_band(rng: random.Random) -> tuple:
    return (_r6(rng.uniform(-0.45, -0.1)), _r6(rng.uniform(0.75, 0.95)))


def equator_band(rng: random.Random) -> tuple:
    return (_r6(rng.uniform(-0.05, 0.05)), _r6(rng.uniform(0.15, 0.3)))


def high_band(rng: random.Random) -> tuple:
    rho1 = rng.uniform(0.9, 0.96)
    return (_r6(rho1), _r6(rho1 + rng.uniform(0.01, 0.03)))


def seeded_bands(seed: int) -> list:
    """Three bands of each class, interleaved: narrow, wide, equator, high."""
    rng = random.Random(f"bands-{seed}")
    makers = (narrow_band, wide_band, equator_band, high_band)
    return [make(rng) for _ in range(3) for make in makers]


def bands_round(seed: int) -> list:
    ops = []
    bands = [CANONICAL] + seeded_bands(seed)
    bands.insert(7, OVERFLOW_BANDS[0])
    bands.append(OVERFLOW_BANDS[1])
    for band in bands:
        args = _band_args(band)
        ops.append(
            Op(
                "band",
                (["optimize"] + args, ["table"] + args),
                band,
                "OverflowError" if band in OVERFLOW_BANDS else None,
            )
        )
    return ops


def curves_round(seed: int) -> list:
    rng = random.Random(f"curves-{seed}")
    bands = [CANONICAL, wide_band(rng), equator_band(rng), high_band(rng)]
    return [
        Op(
            "curves",
            (
                ["curves", f"--samples={CURVES_SAMPLES}"] + _band_args(band),
                ["optimize", "--scan", f"--samples={SCAN_SAMPLES}"] + _band_args(band),
            ),
            band,
        )
        for band in bands
    ]


def coastline(seed: int) -> dict:
    """A synthetic GeoJSON FeatureCollection around the canonical band.

    * a ring circling the globe whose latitude swings across both band
      edges, so it crosses every cut meridian and leaves and re-enters the
      band many times;
    * a MultiLineString of small closed islands inside the band;
    * one line wholly south of the band (dropped in clipping);
    * three non-line features (ignored by the parser).
    """
    rng = random.Random(f"coast-{seed}")
    waves = rng.choice((3, 4, 5))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    amp = rng.uniform(9.0, 12.0)
    ring = []
    for i in range(RING_VERTICES):
        lon = -180.0 + 360.0 * i / (RING_VERTICES - 1)
        lat = 55.0 + amp * math.sin(waves * math.radians(lon) + phase)
        ring.append([round(lon, 6), round(lat + rng.uniform(-0.3, 0.3), 6)])

    islands = []
    for _ in range(ISLANDS):
        clon, clat = rng.uniform(-170.0, 170.0), rng.uniform(51.0, 59.0)
        radius = rng.uniform(1.0, 2.0)
        loop = []
        for j in range(ISLAND_VERTICES):
            t = 2.0 * math.pi * j / (ISLAND_VERTICES - 1)
            lon = clon + radius * 1.7 * math.cos(t)
            loop.append([round(lon, 6), round(clat + radius * math.sin(t), 6)])
        islands.append(loop)

    south_lat = rng.uniform(25.0, 35.0)
    south = [
        [round(-60.0 + 120.0 * i / (OUTSIDE_VERTICES - 1), 6),
         round(south_lat + 3.0 * math.sin(i / 7.0), 6)]
        for i in range(OUTSIDE_VERTICES)
    ]

    def feature(name, geometry):
        return {"type": "Feature", "properties": {"name": name}, "geometry": geometry}

    return {
        "type": "FeatureCollection",
        "features": [
            feature("ring", {"type": "LineString", "coordinates": ring}),
            feature("islands", {"type": "MultiLineString", "coordinates": islands}),
            feature("south", {"type": "LineString", "coordinates": south}),
            feature("city", {"type": "Point", "coordinates": [37.6, 55.75]}),
            feature(
                "lake",
                {"type": "Polygon",
                 "coordinates": [[[30.0, 60.0], [31.0, 60.0], [31.0, 61.0], [30.0, 60.0]]]},
            ),
            feature("ports", {"type": "MultiPoint", "coordinates": [[30.3, 59.9], [40.5, 64.5]]}),
        ],
    }


def maps_round(seed: int, out_dir: Path) -> list:
    """Six `project` calls, one per kind; lambert (the default kind) first."""
    path = out_dir / f"coast-{seed}.geojson"
    path.write_text(json.dumps(coastline(seed)), encoding="utf-8")
    rng = random.Random(f"cuts-{seed}")
    ops = []
    for kind in MAP_KINDS:
        cut = round(rng.uniform(-179.0, 179.0), 2)
        ops.append(
            Op(
                "project",
                (["project", f"--kind={kind}", f"--cut={cut!r}", str(path)],),
                CANONICAL,
                map_kind=kind,
                cut=cut,
            )
        )
    return ops


def build_round(workload: str, seed: int, out_dir: Path) -> list:
    if workload == "maps":
        return maps_round(seed, out_dir)
    if workload == "bands":
        return bands_round(seed)
    if workload == "curves":
        return curves_round(seed)
    raise ValueError(f"unknown workload {workload!r}")
