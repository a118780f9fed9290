"""Library entry points reject what they cannot map: a NaN height, a cut
that is not finite and a graticule step that is not finite, not positive
or too small.  The CLI never sends these, so its messages do not move."""

import math

import numpy as np
import pytest

from conicmaps import (
    GeoPolyline,
    SphericalAnnulus,
    SphericalPoint,
    graticule,
    make_profile,
    project_point,
    project_polylines,
    stretch_at,
)
from conicmaps.errors import OutOfAnnulus
from conicmaps.projections import COMPARISON_ORDER, ProjectionParams
from conftest import RHO1, RHO2

ANNULUS = SphericalAnnulus(RHO1, RHO2)


@pytest.mark.parametrize("kind", COMPARISON_ORDER)
def test_a_nan_height_is_outside_the_annulus(kind):
    profile = make_profile(kind, ProjectionParams(RHO1, RHO2))
    with pytest.raises(OutOfAnnulus, match=r"^height nan outside \["):
        stretch_at(profile, math.nan)


@pytest.mark.parametrize("cut", [math.nan, math.inf, -math.inf])
def test_a_non_finite_cut_raises_one_message_that_names_it(cut):
    profile = make_profile("lambert", ProjectionParams(RHO1, RHO2))
    message = rf"^cut longitude must be finite, got {cut}$"
    line = GeoPolyline("line", [(10.0, 55.0), (20.0, 56.0)])
    for lines in ([line], graticule(10.0, 5.0, ANNULUS), []):
        with pytest.raises(ValueError, match=message):
            project_polylines(profile, lines, cut)
    with pytest.raises(ValueError, match=message):
        project_point(profile, SphericalPoint(0.2, RHO1), cut)


@pytest.mark.parametrize(
    "lon_step, lat_step, message",
    [
        (math.nan, 5.0, r"^longitude step must be positive, got nan$"),
        (-math.inf, 5.0, r"^longitude step must be positive, got -inf$"),
        (-0.0, 5.0, r"^longitude step must be positive, got -0.0$"),
        (10.0, math.nan, r"^latitude step must be finite and positive, got nan$"),
        (10.0, math.inf, r"^latitude step must be finite and positive, got inf$"),
        (10.0, 0.0, r"^latitude step must be finite and positive, got 0.0$"),
    ],
)
def test_a_step_that_is_not_finite_or_not_positive_is_named(lon_step, lat_step, message):
    with pytest.raises(ValueError, match=message):
        graticule(lon_step, lat_step, ANNULUS)


@pytest.mark.parametrize("lon_step", [0.01, 0.0359, 1e-300, 5e-324])
def test_a_longitude_step_with_over_10000_meridians_is_rejected(lon_step):
    # 0.01 asks for 36,000 meridians; 5e-324 made round(360 / step) overflow.
    with pytest.raises(ValueError, match=r"^longitude step \S+ gives over 10,000 meridians$"):
        graticule(lon_step, 5.0, ANNULUS)


def test_the_smallest_step_under_the_cap_still_draws():
    grid = graticule(0.036, 5.0, ANNULUS)
    assert len(grid.meridian_lons) == 10_001
    assert grid.meridian_lons[0] == -180.0 and grid.meridian_lons[-1] == 180.0
    assert np.isfinite(grid.meridian_lons).all()
