"""Every entry point that takes a band checks it the same way, and
`compare_all` reports a kind that is no map of the band as None."""

from types import SimpleNamespace

import pytest

from conicmaps import (
    ProjectionParams,
    SphericalAnnulus,
    annulus_distortion,
    bilipschitz_curve,
    compare_all,
    cone_through_parallels,
    graticule,
    optimal_alpha_by_root,
    optimal_alpha_by_scan,
)
from conicmaps.projections import COMPARISON_ORDER, KIND_DELISLE_EQUIDISTANT

ENTRY_POINTS = {
    "ProjectionParams": ProjectionParams,
    "SphericalAnnulus": SphericalAnnulus,
    "cone_through_parallels": cone_through_parallels,
    "annulus_distortion": lambda r1, r2: annulus_distortion(r1, r2, 0.9, 0.0),
    # a stand-in for the annulus, which would reject the band itself
    "graticule": lambda r1, r2: graticule(10.0, 5.0, SimpleNamespace(rho1=r1, rho2=r2)),
    "optimal_alpha_by_root": optimal_alpha_by_root,
    "optimal_alpha_by_scan": optimal_alpha_by_scan,
    "bilipschitz_curve": lambda r1, r2: bilipschitz_curve(r1, r2, 5),
}


@pytest.mark.parametrize("band", [(0.5, 0.4), (-1.0, 0.5), (0.2, 1.0)])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_band_entry_point_rejects_with_one_message(entry, band):
    with pytest.raises(ValueError) as exc:
        ENTRY_POINTS[entry](*band)
    assert str(exc.value) == f"need -1 < rho1 < rho2 < 1, got {band}"


def test_compare_all_reports_no_map_of_the_band_as_none():
    rows = dict(compare_all(ProjectionParams(-0.6, 0.998)))
    assert list(rows) == list(COMPARISON_ORDER)
    assert rows[KIND_DELISLE_EQUIDISTANT] is None
    assert all(rows[kind] is not None for kind in rows if kind != KIND_DELISLE_EQUIDISTANT)
