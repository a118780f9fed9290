import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conicmaps import (
    StretchSample,
    annulus_distortion,
    bilipschitz_curve,
    lipschitz_constant,
    log_squared_stretch,
    make_profile,
    optimal_alpha_by_root,
    optimal_alpha_by_scan,
    profile_distortion,
    squared_stretch,
)
from conicmaps.cli import main
from conicmaps.cone import cone_through_parallels
from conicmaps.errors import NonPositiveStretch
from conicmaps.projections import MeridianProfile, ProjectionParams
from conftest import A0, ALPHA0, DELTA_MIN, PUBLISHED, RHO1, RHO2, SIGMA_MAX

unit_open = st.floats(min_value=-0.999, max_value=0.999)


def closed_form_a0(rho1, rho2):
    # log F(rho2, a, rho1) is linear in a: collecting the symmetric and
    # antisymmetric log terms and solving for the zero gives
    # a = (log((1-rho1)/(1-rho2)) - log((1+rho2)/(1+rho1)))
    #     / (log((1-rho1)/(1-rho2)) + log((1+rho2)/(1+rho1)))
    q = math.log((1 - rho1) / (1 - rho2))
    p = math.log((1 + rho2) / (1 + rho1))
    return (q - p) / (q + p)


class TestSquaredStretch:
    @given(x=unit_open, y=unit_open)
    def test_reflexive_is_one(self, x, y):
        assert log_squared_stretch(x, y, x) == 0.0
        assert abs(squared_stretch(x, y, x) - 1.0) < 1e-14

    @given(x=unit_open, y=unit_open, z=unit_open)
    def test_swap_inverts(self, x, y, z):
        prod = squared_stretch(z, y, x) * squared_stretch(x, y, z)
        assert abs(prod - 1.0) < 1e-13

    @given(x=unit_open, y=unit_open, z=unit_open)
    def test_reference_change(self, x, y, z):
        lhs = squared_stretch(x, y, z) / squared_stretch(y, y, z)
        rhs = squared_stretch(x, y, y)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)

    def test_equal_boundary_stretch_at_optimum(self):
        assert squared_stretch(RHO2, 0.821529, RHO1) == pytest.approx(1.0, abs=2e-5)

    def test_monotone_decreasing_in_y(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            z = rng.uniform(-0.9, 0.85)
            x = rng.uniform(z + 0.01, 0.95)
            ys = np.linspace(-0.95, 0.95, 21)
            vals = [squared_stretch(x, y, z) for y in ys]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_convex_in_x_with_min_at_y(self):
        for y, z in ((0.3, -0.2), (0.821529, 0.737277), (-0.4, 0.5)):
            xs = np.linspace(-0.99, 0.99, 1999)
            vals = np.array([squared_stretch(x, y, z) for x in xs])
            second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
            assert np.all(second > 0.0)
            x_min = xs[np.argmin(vals)]
            assert abs(x_min - y) <= xs[1] - xs[0]

    def test_divergence_toward_poles(self):
        # the blow-up rate is (1 -+ x)^-(1 -+ y); with |y| <= 0.15 the
        # exponent stays >= 0.85 and the value passes 1e6 well before
        # |x| = 1 - 1e-8 despite the bounded prefactors
        for y in (-0.15, 0.0, 0.15):
            for z in (-0.5, 0.0, 0.5):
                assert squared_stretch(1.0 - 1e-8, y, z) > 1e6
                assert squared_stretch(-1.0 + 1e-8, y, z) > 1e6

    def test_diagonal_unimodal_around_z(self):
        z = 0.2
        xs_left = np.linspace(-0.95, z - 1e-6, 400)
        vals_left = [squared_stretch(x, x, z) for x in xs_left]
        assert all(b > a for a, b in zip(vals_left, vals_left[1:]))
        xs_right = np.linspace(z + 1e-6, 0.95, 400)
        vals_right = [squared_stretch(x, x, z) for x in xs_right]
        assert all(b < a for a, b in zip(vals_right, vals_right[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            squared_stretch(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            squared_stretch(0.0, -1.0, 0.0)


class TestAnnulusDistortion:
    def test_canonical_minimum(self):
        delta = annulus_distortion(RHO1, RHO2, ALPHA0, RHO1)
        target, tol = PUBLISHED["delta_min"]
        assert delta == pytest.approx(target, abs=tol)
        assert delta == pytest.approx(DELTA_MIN, abs=1e-13)

    def test_minimality(self):
        base = annulus_distortion(RHO1, RHO2, ALPHA0, RHO1)
        rng = np.random.default_rng(59)
        for _ in range(200):
            alpha = rng.uniform(0.05, math.pi / 2 - 0.05)
            assert annulus_distortion(RHO1, RHO2, alpha, RHO1) >= base - 1e-15

    def test_independent_of_normalization_height(self):
        rng = np.random.default_rng(61)
        base = annulus_distortion(RHO1, RHO2, 0.8, RHO1)
        for _ in range(300):
            rho0 = rng.uniform(-0.999, 0.999)
            assert abs(annulus_distortion(RHO1, RHO2, 0.8, rho0) - base) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            annulus_distortion(0.5, 0.4, 0.8, 0.0)
        with pytest.raises(ValueError):
            annulus_distortion(0.1, 0.5, 0.0, 0.0)


class TestOptimalAlpha:
    def test_canonical_root(self):
        alpha = optimal_alpha_by_root(RHO1, RHO2)
        target, tol = PUBLISHED["a0"]
        assert math.sin(alpha) == pytest.approx(target, abs=tol)
        assert math.sin(alpha) == pytest.approx(A0, abs=1e-12)
        assert alpha == pytest.approx(ALPHA0, abs=1e-12)

    def test_canonical_scan(self):
        alpha = optimal_alpha_by_scan(RHO1, RHO2)
        assert math.sin(alpha) == pytest.approx(0.821529, abs=1e-5)
        assert abs(alpha - optimal_alpha_by_root(RHO1, RHO2)) <= 1e-9

    def test_alternative_upper_height(self):
        alpha = optimal_alpha_by_root(RHO1, 0.92388)
        assert math.sin(alpha) == pytest.approx(0.8478163008119556, abs=1e-11)

    def test_root_in_bounds_and_matches_closed_form(self):
        rng = np.random.default_rng(67)
        for _ in range(1000):
            rho1 = rng.uniform(-0.98, 0.96)
            rho2 = rng.uniform(rho1 + 0.01, 0.98)
            a = math.sin(optimal_alpha_by_root(rho1, rho2))
            assert rho1 < a < rho2
            assert abs(a - closed_form_a0(rho1, rho2)) <= 1e-12

    def test_root_scan_equivalence(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            rho1 = rng.uniform(-0.9, 0.9)
            rho2 = rng.uniform(rho1 + 0.05, 0.95)
            root = optimal_alpha_by_root(rho1, rho2)
            scan = optimal_alpha_by_scan(rho1, rho2)
            assert abs(root - scan) <= 1e-9

    def test_near_degenerate_band(self):
        rho1 = 0.5
        rho2 = rho1 + 1e-6
        a = math.sin(optimal_alpha_by_root(rho1, rho2))
        assert rho1 < a < rho2


class TestBilipschitzCurve:
    def test_endpoints_are_isometric(self):
        samples = bilipschitz_curve(RHO1, RHO2, 129)
        assert abs(samples[0].sigma - 1.0) <= 1e-10
        assert abs(samples[-1].sigma - 1.0) <= 1e-10
        assert samples[0].rho == pytest.approx(RHO1)
        assert samples[-1].rho == pytest.approx(RHO2)

    def test_interior_maximum_location_and_value(self):
        # the single interior maximum sits at rho = sin(alpha0) and equals
        # exp(delta_min)
        samples = bilipschitz_curve(RHO1, RHO2, 2001)
        sigmas = [s.sigma for s in samples]
        k = int(np.argmax(sigmas))
        spacing = max(
            samples[k].rho - samples[k - 1].rho, samples[k + 1].rho - samples[k].rho
        )
        assert abs(samples[k].rho - A0) <= spacing
        peak = 1.0 / lipschitz_constant(A0, ALPHA0, RHO1)
        assert peak == pytest.approx(SIGMA_MAX, abs=1e-12)
        assert sigmas[k] <= peak + 1e-12
        assert sigmas[k] == pytest.approx(peak, abs=1e-7)

    def test_unimodal(self):
        samples = bilipschitz_curve(RHO1, RHO2, 501)
        sigmas = [s.sigma for s in samples]
        k = int(np.argmax(sigmas))
        assert all(b >= a - 1e-12 for a, b in zip(sigmas[: k + 1], sigmas[1 : k + 1]))
        assert all(b <= a + 1e-12 for a, b in zip(sigmas[k:], sigmas[k + 1 :]))

    def test_sample_counts(self):
        assert len(bilipschitz_curve(RHO1, RHO2, 2)) == 2
        with pytest.raises(ValueError):
            bilipschitz_curve(RHO1, RHO2, 1)


class TestProfileDistortion:
    def test_lambert_agrees_with_closed_form(self):
        profile = make_profile("lambert", ProjectionParams(RHO1, RHO2))
        report = profile_distortion(profile)
        closed = annulus_distortion(RHO1, RHO2, ALPHA0, RHO1)
        assert abs(report.delta - closed) <= 1e-9
        assert report.delta > 0.0

    def test_deterministic(self):
        profile = make_profile("central", ProjectionParams(RHO1, RHO2))
        r1 = profile_distortion(profile, 4097)
        r2 = profile_distortion(profile, 4097)
        assert (r1.sup_log, r1.inf_log, r1.arg_sup, r1.arg_inf) == (
            r2.sup_log,
            r2.inf_log,
            r2.arg_sup,
            r2.arg_inf,
        )

    def test_degenerate_profile_rejected(self):
        cone = cone_through_parallels(RHO1, RHO2)
        eps1, eps2 = math.acos(RHO1), math.acos(RHO2)
        bad = MeridianProfile(
            "central",
            cone,
            eps1,
            eps2,
            lambda e: 2.0 - np.asarray(e, dtype=float),  # decreasing slant
            lambda e: -np.ones_like(np.asarray(e, dtype=float)),
        )
        with pytest.raises(NonPositiveStretch):
            profile_distortion(bad)

    @pytest.mark.parametrize("critical", [None, ()], ids=["grid", "exact"])
    @pytest.mark.parametrize("negative", ["slant derivative", "slant"])
    def test_non_positive_stretch_has_one_message(self, critical, negative):
        cone = cone_through_parallels(RHO1, RHO2)
        eps1, eps2 = math.acos(RHO1), math.acos(RHO2)
        sign = -1.0 if negative == "slant" else 1.0
        bad = MeridianProfile(
            "central",
            cone,
            eps1,
            eps2,
            lambda e: sign * (2.0 - np.asarray(e, dtype=float)),
            lambda e: -sign * np.ones_like(np.asarray(e, dtype=float)),
            critical=critical,
        )
        with pytest.raises(NonPositiveStretch, match="^stretches must be positive$"):
            profile_distortion(bad)

    @pytest.mark.parametrize("h_m, h_p", [(0.0, 1.0), (1.0, -2.0)])
    def test_stretch_sample_gives_the_same_message(self, h_m, h_p):
        with pytest.raises(NonPositiveStretch, match="^stretches must be positive$"):
            StretchSample(0.5, h_m, h_p, 1.0)

    def test_near_flat_band_small_positive(self):
        # isometric meridians on an almost flat cone over a thin band near
        # the apex: the distortion comes only from the tiny parallel defect
        from conicmaps.cone import Cone

        cone = Cone(math.asin(1.0 - 1e-9), 1.0)
        eps_hi, eps_lo = 0.01, 0.02
        profile = MeridianProfile(
            "central",
            cone,
            eps_lo,
            eps_hi,
            lambda e: np.asarray(e, dtype=float),
            lambda e: np.ones_like(np.asarray(e, dtype=float)),
        )
        report = profile_distortion(profile)
        assert 0.0 < report.delta < 1e-4

    def test_grid_floor(self):
        profile = make_profile("lambert", ProjectionParams(RHO1, RHO2))
        with pytest.raises(ValueError):
            profile_distortion(profile, 63)


@pytest.mark.parametrize("center", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("width", [1e-6, 1e-8, 1e-10, 1e-12])
def test_root_of_very_narrow_band_is_inside(center, width):
    # to first order in the width the root sits at the middle of the band
    rho1, rho2 = center, center + width
    a = math.sin(optimal_alpha_by_root(rho1, rho2))
    assert rho1 < a < rho2
    assert abs(a - 0.5 * (rho1 + rho2)) <= width * width + 4e-16


def _seeded_root_bands(seed, count):
    """Bands of four classes: anywhere in the domain, 1e-12 to 1e-2 wide,
    1e-15 to 1e-1 below the pole and up to 100 times as wide, and with
    rho1 + rho2 from 1e-12 to 1e-1."""
    rng = np.random.default_rng(seed)
    classes = {"random": [], "narrow": [], "near-pole": [], "near-zero-sum": []}
    while min(map(len, classes.values())) < count:
        rho1 = rng.uniform(-0.99, 0.99)
        gap = 10.0 ** rng.uniform(-15.0, -1.0)
        candidates = {
            "random": (rho1, rng.uniform(rho1, 0.999)),
            "narrow": (rho1, rho1 + 10.0 ** rng.uniform(-12.0, -2.0)),
            "near-pole": (1.0 - gap * 10.0 ** rng.uniform(0.0, 2.0), 1.0 - gap),
            "near-zero-sum": (-abs(rho1), abs(rho1) + 10.0 ** rng.uniform(-12.0, -1.0)),
        }
        for name, (r1, r2) in candidates.items():
            if -1.0 < r1 < r2 < 1.0 and r1 + r2 > 0.0 and len(classes[name]) < count:
                classes[name].append((r1, r2))
    return classes


@pytest.mark.parametrize("band_class", ["random", "narrow", "near-pole", "near-zero-sum"])
def test_root_against_mpmath(band_class):
    """sin(alpha0) against the root of (1 + a) p + (1 - a) m = 0 at 40 digits."""
    worst = 0.0
    with mpmath.workdps(40):
        for rho1, rho2 in _seeded_root_bands(17, 150)[band_class]:
            p1, p2 = mpmath.mpf(rho1), mpmath.mpf(rho2)
            p = mpmath.log((1 + p1) / (1 + p2))
            m = mpmath.log((1 - p1) / (1 - p2))
            exact = (m + p) / (m - p)
            a = math.sin(optimal_alpha_by_root(rho1, rho2))
            worst = max(worst, float(abs(a - exact) / exact))
    assert worst <= 2e-15


def test_optimize_on_a_zero_sum_band_prints_a0_zero(capsys):
    assert main(["optimize", "--rho1=-0.3", "--rho2=0.3"]) == 2
    assert "gives the optimal a0 = 0 <= 0, an upward cone" in capsys.readouterr().err
