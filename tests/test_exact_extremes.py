"""profile_distortion takes its extremes from the endpoints and the closed-form
critical heights of each profile, and agrees with the grid and golden-section
path that it keeps for profiles whose critical heights are unknown."""

import dataclasses
import math
import random

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conicmaps import distortion, make_profile, optimal_alpha_by_root, profile_distortion
from conicmaps.cli import main
from conicmaps.errors import NonPositiveStretch
from conicmaps.projections import COMPARISON_ORDER, ProjectionParams
from conftest import RHO1, RHO2


def seeded_bands(seed: int, count: int) -> list[tuple[float, float]]:
    """Bands of width 1e-4 to 1 (log-uniform) with rho1 + rho2 > 0.05."""
    rng = random.Random(seed)
    bands = []
    while len(bands) < count:
        width = 10.0 ** rng.uniform(-4.0, 0.0)
        rho1 = rng.uniform(0.5 * (0.05 - width), 1.0 - width)
        rho2 = rho1 + width
        if -1.0 < rho1 < rho2 < 1.0 and rho1 + rho2 > 0.05:
            bands.append((rho1, rho2))
    return bands


def lambert_delta_closed_form(rho1: float, rho2: float) -> float:
    """Half the spread of log F(x, a0, rho1) over the band.

    Each log of a ratio is a log1p of a difference divided once, so nothing
    cancels however narrow the band.  The sup is at an endpoint (log F is 0
    at rho1) and the inf at x = a0, which lies inside the band.
    """
    a = math.sin(optimal_alpha_by_root(rho1, rho2))

    def log_f(x):
        return (1.0 + a) * math.log1p((rho1 - x) / (1.0 + x)) + (1.0 - a) * math.log1p(
            (x - rho1) / (1.0 - x)
        )

    return 0.5 * (max(0.0, log_f(rho2)) - log_f(a))


def test_lambert_delta_matches_closed_form_absolutely():
    worst = 0.0
    for rho1, rho2 in seeded_bands(1, 500):
        report = profile_distortion(make_profile("lambert", ProjectionParams(rho1, rho2)))
        worst = max(worst, abs(report.delta - lambert_delta_closed_form(rho1, rho2)))
    assert worst <= 1e-15


def test_exact_extremes_bound_the_golden_section_fallback(monkeypatch):
    def refine(*args, **kwargs):
        raise AssertionError("the exact path fell back on golden-section search")

    for rho1, rho2 in seeded_bands(2, 150):
        for kind in COMPARISON_ORDER:
            profile = make_profile(kind, ProjectionParams(rho1, rho2))
            fallback = dataclasses.replace(profile, critical=None)
            with monkeypatch.context() as m:
                m.setattr(distortion, "_golden_section", refine)
                exact = profile_distortion(profile)
            refined = profile_distortion(fallback)
            assert exact.sup_log >= refined.sup_log - 1e-15, (kind, rho1, rho2)
            assert exact.inf_log <= refined.inf_log + 1e-15, (kind, rho1, rho2)


# How far the grid path's extremes may exceed the exact path's, in
# log-stretch, before the exact path counts as having missed an extremum.
GRID_TOLERANCE = 1e-13


def exact_and_grid(profile):
    """The exact path's and the grid path's report of one profile, each
    replaced by its NonPositiveStretch message when it raises one."""

    def run(p):
        try:
            return profile_distortion(p)
        except NonPositiveStretch as exc:
            return str(exc)

    return run(profile), run(dataclasses.replace(profile, critical=None))


def bounds_the_grid(exact, grid) -> bool:
    return (
        exact.sup_log >= grid.sup_log - GRID_TOLERANCE
        and exact.inf_log <= grid.inf_log + GRID_TOLERANCE
    )


def check_every_kind_against_the_grid(rho1, rho2):
    """The exact path's extremes bound the grid path's, and both paths find
    a stretch that is not positive on the same bands."""
    for kind in COMPARISON_ORDER:
        exact, grid = exact_and_grid(make_profile(kind, ProjectionParams(rho1, rho2)))
        assert isinstance(exact, str) == isinstance(grid, str), (kind, exact, grid)
        if not isinstance(exact, str):
            assert bounds_the_grid(exact, grid), (kind, exact, grid)


def band_of(rho2, width):
    rho1 = rho2 - width
    assume(-1.0 < rho1 < rho2 < 1.0 and rho1 + rho2 > 0.05)
    return rho1, rho2


# rho1 + rho2 stays above 0.05: below about 0.01, lambert_chart overflows
# (the strict xfails at the end of this file pin that defect).
BAND_CLASSES = {
    "canonical": st.just((RHO1, RHO2)),
    "narrow": st.builds(
        band_of,
        st.floats(-0.9, 1.0 - 1e-3),
        st.floats(-12.0, -4.0).map(lambda u: 10.0**u),
    ),
    "near-pole": st.builds(
        band_of,
        st.floats(-15.0, -9.0).map(lambda u: 1.0 - 10.0**u),
        st.floats(-12.0, 0.0).map(lambda u: 10.0**u),
    ),
    "wide": st.builds(band_of, st.floats(0.5, 0.999), st.floats(0.5, 1.9)),
}


@pytest.mark.parametrize("band_class", BAND_CLASSES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_extremes_bound_the_grid(band_class, data):
    check_every_kind_against_the_grid(*data.draw(BAND_CLASSES[band_class], label="band"))


# Bands the near-pole class has failed on; they run every time, whatever
# Hypothesis draws.  On the first, the orthogonal critical colatitude taken
# as acos(1/apex) put the exact minimum 1.03e-13 in log-stretch above the
# grid's.
NEAR_POLE_BANDS = [(0.7544591939931753, 0.999999999999999)]


@pytest.mark.parametrize("band", NEAR_POLE_BANDS, ids=lambda b: "%r-%r" % b)
def test_exact_extremes_bound_the_grid_near_the_pole(band):
    check_every_kind_against_the_grid(*band)


def test_missing_interior_extremum_fails_the_grid_property():
    profile = make_profile("orthogonal", ProjectionParams(RHO1, RHO2))
    # The parallel stretch has its minimum at acos(1/apex), inside the band.
    assert profile.eps_hi < profile.critical[1] < profile.eps_lo
    exact, grid = exact_and_grid(profile)
    assert bounds_the_grid(exact, grid)
    blind, grid = exact_and_grid(dataclasses.replace(profile, critical=()))
    assert not bounds_the_grid(blind, grid)
    assert blind.inf_log > grid.inf_log + GRID_TOLERANCE


@pytest.mark.parametrize("kind", COMPARISON_ORDER)
def test_critical_heights_are_stationary(kind):
    # A central difference of each stretch that peaks there is ~0 at every
    # in-band critical height.
    profile = make_profile(kind, ProjectionParams(0.2, 0.95))
    inside = [e for e in profile.critical if profile.eps_hi < e < profile.eps_lo]
    assert inside
    h = 1e-5
    for e in inside:
        slopes = [
            abs(float(values[2] - values[0])) / (2.0 * h * float(values[1]))
            for values in profile.stretches([e - h, e, e + h])
        ]
        assert min(slopes) <= 1e-8, (kind, e, slopes)


@pytest.mark.parametrize(
    "band", [(0.1, 0.1000000001), (0.5, 0.5000001), (RHO1, RHO2), (0.2, 0.99)]
)
def test_delisle_scale_against_mpmath(band):
    rho1, rho2 = band
    with mpmath.workdps(40):
        r1 = mpmath.sqrt(1 - mpmath.mpf(rho1) ** 2)
        r2 = mpmath.sqrt(1 - mpmath.mpf(rho2) ** 2)
        chord = mpmath.hypot(r1 - r2, mpmath.mpf(rho2) - mpmath.mpf(rho1))
        exact = chord / (mpmath.acos(rho1) - mpmath.acos(rho2))
        scale = make_profile("delisle", ProjectionParams(rho1, rho2)).aux["scale"]
        assert abs(scale - exact) <= 4e-16 * exact


@pytest.mark.parametrize(
    "band",
    [
        (0.0, 1e-300),
        (1e-300, 2e-300),
        (-0.3, 0.9),
        (RHO1, RHO2),
        (0.7544591939931753, 0.999999999999999),
        (0.9999999999999998, 0.9999999999999999),
    ],
)
def test_orthogonal_pole_slant_against_mpmath(band):
    # The orthogonal map sends the pole to slant cos(alpha) (apex - 1), and
    # tan(alpha) = (rho1 + rho2) / (r1 + r2) for the cone through both
    # parallels, so apex - 1 = r1 (r1 + r2) / (rho1 + rho2) - (1 - rho1).
    rho1, rho2 = band
    profile = make_profile("orthogonal", ProjectionParams(rho1, rho2))
    with mpmath.workdps(80):
        x1, x2 = mpmath.mpf(rho1), mpmath.mpf(rho2)
        r1 = mpmath.sqrt((1 - x1) * (1 + x1))
        r2 = mpmath.sqrt((1 - x2) * (1 + x2))
        exact = profile.cone.cos_alpha * (r1 * (r1 + r2) / (x1 + x2) - (1 - x1))
        assert abs(profile.s(0.0) - exact) <= 1e-15 * exact


def test_table_on_a_very_narrow_band_prints_no_delisle_noise(capsys):
    assert main(["table", "--rho1", "0.1", "--rho2", "0.1000000001"]) == 0
    row = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("delisle "))
    assert row.split()[1:] == ["0.0000000000", "1.0000000000", "1.0000000000"]


def test_table_on_a_very_narrow_band_prints_no_teichmuller_noise(capsys):
    assert main(["table", "--rho1", "0.1", "--rho2", "0.1000000001"]) == 0
    row = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("teichmuller "))
    assert row.split()[1:] == ["0.0000000000", "1.0000000000", "1.0000000000"]


def narrow_seeded_bands(seed: int, count: int) -> list[tuple[float, float]]:
    """Bands of width 1e-12 to 1 (log-uniform) with rho1 + rho2 > 0.05."""
    rng = random.Random(seed)
    bands = []
    while len(bands) < count:
        width = 10.0 ** rng.uniform(-12.0, 0.0)
        rho1 = rng.uniform(0.5 * (0.05 - width), 1.0 - width)
        rho2 = rho1 + width
        if -1.0 < rho1 < rho2 < 1.0 and rho1 + rho2 > 0.05:
            bands.append((rho1, rho2))
    return bands


@pytest.mark.parametrize(
    "bands",
    [
        narrow_seeded_bands(7, 300),
        [(0.999999, 0.9999990001), (0.99999999, 0.999999991), (0.5, 0.9999999), (RHO1, RHO2)],
    ],
    ids=["seeded", "near-pole"],
)
def test_teichmuller_moduli_against_mpmath(bands):
    """The dilatation and both moduli, from their defining formulas at 40 digits."""
    worst = 0.0
    with mpmath.workdps(40):
        for rho1, rho2 in bands:
            p1, p2 = mpmath.mpf(rho1), mpmath.mpf(rho2)
            r1, r2 = mpmath.sqrt(1 - p1**2), mpmath.sqrt(1 - p2**2)
            sin_alpha = mpmath.sin(mpmath.atan((r1 - r2) / (p2 - p1)))
            mod_sphere = mpmath.log((1 - p1) / (1 + p1) * (1 + p2) / (1 - p2)) / (4 * mpmath.pi)
            mod_cone = mpmath.log(r1 / r2) / (2 * mpmath.pi * sin_alpha)
            aux = make_profile("teichmuller", ProjectionParams(rho1, rho2)).aux
            for key, exact in (
                ("dilatation", mod_cone / mod_sphere),
                ("mod_sphere", mod_sphere),
                ("mod_cone", mod_cone),
            ):
                worst = max(worst, float(abs(aux[key] - exact) / exact))
    assert worst <= 4e-15


def test_project_on_an_upward_cone_explains_the_domain(capsys):
    assert main(["project", "--rho1", "-0.5", "--rho2", "0.3"]) == 2
    err = capsys.readouterr().err
    assert "upward cone" in err and "rho1 + rho2 > 0" in err
    assert "alpha must lie" not in err


# On these bands sin(alpha0) is tiny and conformal.lambert_chart's unused
# r_norm overflows.  The benchmark's bands workload counts them as its only
# failures, so the defect stays until that workload changes with its fix.
OVERFLOW_BAND = (-0.2486, 0.2532)


@pytest.mark.xfail(raises=OverflowError, strict=True)
def test_lambert_profile_on_overflow_band():
    make_profile("lambert", ProjectionParams(*OVERFLOW_BAND))


@pytest.mark.xfail(raises=OverflowError, strict=True)
def test_table_on_overflow_band():
    assert main(["table", f"--rho1={OVERFLOW_BAND[0]}", f"--rho2={OVERFLOW_BAND[1]}"]) == 0


def test_lambert_sigma_is_one_on_the_edges_of_a_near_pole_band(capsys):
    argv = ["curves", "--rho1", "0.99999999", "--rho2", "0.999999991", "--samples", "3"]
    assert main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    column = header.split(",").index("sigma_lambert")
    for row in (rows[0], rows[-1]):
        assert abs(float(row.split(",")[column]) - 1.0) <= 1e-14
