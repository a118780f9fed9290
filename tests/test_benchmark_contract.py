"""What the benchmark's tracer (`benchmarks/tracing.py`) needs of the package.

The tracer replaces functions by name in the namespaces where `cli` and
`projections` look them up, copies profiles with `dataclasses.replace`, and
reads a count off the results of two geodata functions.  Some of these names
are imported only for the tracer, so a tidy-up that drops an import which
looks unused fails here instead of on every traced benchmark run.
"""

import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import conicmaps
import conicmaps.cli
from conicmaps import (
    SphericalAnnulus,
    graticule,
    make_profile,
    parse_geojson_lines,
    profile_distortion,
    project_polylines,
)
from conicmaps.projections import COMPARISON_ORDER, ProjectionParams
from conftest import RHO1, RHO2

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "conicmaps_bench_tracing", ROOT / "benchmarks" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name, name", [
    (module_name, name)
    for module_name, names in tracing.PATCH_POINTS
    for name in names
])
def test_patch_point_resolves(module_name, name):
    module = getattr(conicmaps, module_name)
    assert callable(getattr(module, name))


def test_tracer_installs_and_restores_every_patch_point():
    originals = {
        (module_name, name): getattr(getattr(conicmaps, module_name), name)
        for module_name, names in tracing.PATCH_POINTS
        for name in names
    }
    tracer = tracing.Tracer(conicmaps)
    try:
        tracer.install()
        for (module_name, name), original in originals.items():
            assert getattr(getattr(conicmaps, module_name), name) is not original
    finally:
        tracer.uninstall()
    for (module_name, name), original in originals.items():
        assert getattr(getattr(conicmaps, module_name), name) is original


@pytest.mark.parametrize("kind", COMPARISON_ORDER)
def test_profiles_copy_with_replaced_slant_functions(kind):
    profile = make_profile(kind, ProjectionParams(RHO1, RHO2))
    calls = []

    def counted(f):
        def wrapper(e):
            calls.append(np.size(e))
            return f(e)
        return wrapper

    copy = dataclasses.replace(profile, s=counted(profile.s), s_prime=counted(profile.s_prime))
    assert profile_distortion(copy) == profile_distortion(profile)
    assert calls == [len(profile.candidate_stretches()[0])] * 2


@pytest.mark.parametrize("kind", COMPARISON_ORDER)
def test_a_graticule_is_projected_with_one_profile_call(kind):
    profile = make_profile(kind, ProjectionParams(RHO1, RHO2))
    sizes = []

    def s(e):
        sizes.append(np.size(e))
        return profile.s(e)

    grid = graticule(10.0, 5.0, SphericalAnnulus(RHO1, RHO2))
    projected = project_polylines(dataclasses.replace(profile, s=s), grid, math.pi)
    assert projected.dropped == 0
    # one slant a distinct height: the meridians' and the parallels'
    assert sizes == [len(grid.meridian_lats) + len(grid.parallel_lats)]


def test_a_traced_map_makes_four_profile_calls(tmp_path):
    fixture = ROOT / "tests" / "data" / "map_fixture.geojson"
    argv = ["project", str(fixture), "--cut=37.5", "--out", str(tmp_path / "map.svg")]
    tracer = tracing.Tracer(conicmaps)
    tracer.install()
    try:
        tracer.begin(0, "project")
        assert conicmaps.cli.main(argv) == 0
        tracer.end()
    finally:
        tracer.uninstall()
    # s and s_prime at the candidate heights, s for the graticule, s for the lines
    assert tracer.reduce()["projections.profile_calls"] == [4, 0]
    assert tracer.notes["geodata.project_polylines"] == [0, 1]


def test_notes_read_the_geodata_results():
    text = (ROOT / "tests" / "data" / "map_fixture.geojson").read_text(encoding="utf-8")
    parsed = parse_geojson_lines(text)
    profile = make_profile("lambert", ProjectionParams(RHO1, RHO2))
    projected = project_polylines(profile, parsed.lines, math.pi)
    results = {
        tracing.span_name(parse_geojson_lines): parsed,
        tracing.span_name(project_polylines): projected,
    }
    assert set(results) == set(tracing.NOTES)
    assert tracing.NOTES["geodata.parse_geojson_lines"](parsed) == parsed.ignored
    assert tracing.NOTES["geodata.project_polylines"](projected) == projected.dropped
    for name, note in tracing.NOTES.items():
        assert isinstance(note(results[name]), int)
