import cmath
import math

import numpy as np
import pytest

from conicmaps import (
    SphericalPoint,
    develop,
    lambert_chart,
    lambert_map,
    lambert_slant_distance,
    lipschitz_constant,
    metric_ratio,
    optimal_alpha_by_root,
    plane_to_cone,
    plane_to_sphere,
    sphere_to_plane,
)
from conftest import (
    R_NORM_ROUNDED_A,
    RHO1,
    RHO2,
    SLANT_AT_RHO1,
    SLANT_AT_RHO2,
    SLANT_RHO1_ROUNDED_A,
)

ALPHA_R = math.asin(0.821529)  # chart used by most examples below


@pytest.fixture(scope="module")
def chart():
    return lambert_chart(ALPHA_R, RHO1)


@pytest.fixture(scope="module")
def chart_opt():
    return lambert_chart(optimal_alpha_by_root(RHO1, RHO2), RHO1)


class TestChart:
    def test_r_norm(self, chart):
        assert chart.r_norm == pytest.approx(R_NORM_ROUNDED_A, abs=1e-13)
        sa = chart.sin_alpha
        direct = (math.sqrt(1 - RHO1**2) / sa) ** (1 / sa)
        assert chart.r_norm == pytest.approx(direct, abs=1e-12)

    def test_normalization_circle_maps_to_parallel(self, chart):
        for ang in np.linspace(0.0, 2 * math.pi, 7, endpoint=False):
            p = plane_to_cone(chart, chart.r_norm * cmath.exp(1j * ang))
            x, y, z = p.xyz
            assert z == pytest.approx(RHO1, abs=1e-10)
            assert math.hypot(x, y) == pytest.approx(
                math.sqrt(1 - RHO1**2), abs=1e-10
            )

    def test_invalid_chart_rejected(self):
        with pytest.raises(ValueError):
            lambert_chart(math.asin(0.6), 0.6)  # tangency


class TestPlaneToCone:
    def test_slant_on_normalization_circle(self, chart):
        p = plane_to_cone(chart, chart.r_norm)
        assert p.slant == pytest.approx(SLANT_RHO1_ROUNDED_A, abs=1e-12)

    def test_homogeneity(self, chart):
        z = 0.3 + 0.5j
        p1 = plane_to_cone(chart, z)
        p2 = plane_to_cone(chart, 3.7 * z)
        assert p2.slant == pytest.approx(p1.slant * 3.7**chart.sin_alpha, rel=1e-13)

    def test_matches_displayed_embedding(self, chart):
        rng = np.random.default_rng(23)
        sa = chart.sin_alpha
        for _ in range(50):
            z = rng.uniform(0.2, 3.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            big_r, big_t = abs(z), cmath.phase(z)
            expect = (
                big_r**sa * sa * math.cos(big_t),
                big_r**sa * sa * math.sin(big_t),
                chart.cone.apex_z - big_r**sa * math.cos(chart.alpha),
            )
            assert math.dist(plane_to_cone(chart, z).xyz, expect) < 1e-12

    @pytest.mark.parametrize("z, message", [
        (0.0, "the chart-plane origin is the puncture"),
        (complex(math.inf, 1.0), "non-finite chart-plane point"),
        (complex(1.0, math.nan), "non-finite chart-plane point"),
    ])
    def test_origin_and_non_finite_points_rejected(self, chart, z, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            plane_to_cone(chart, z)


class TestPlaneToSphere:
    def test_normalization_circle(self, chart):
        p = plane_to_sphere(chart, chart.r_norm)
        assert p.rho == pytest.approx(RHO1, abs=1e-12)

    def test_radius_height_relation(self, chart):
        # radius r_norm * sqrt((1+rho0)/(1-rho0)) * sqrt((1-rho)/(1+rho))
        # lands on the parallel of height rho
        for rho in (-0.5, 0.0, 0.4, 0.887011):
            r = (
                chart.r_norm
                * math.sqrt((1 + RHO1) / (1 - RHO1))
                * math.sqrt((1 - rho) / (1 + rho))
            )
            assert plane_to_sphere(chart, r).rho == pytest.approx(rho, abs=1e-12)

    def test_angular_orientation_reversed(self, chart):
        # the inversion reverses the angular coordinate: advancing arg z by
        # phi lowers the longitude by phi
        base = plane_to_sphere(chart, chart.r_norm)
        phi = 0.37
        moved = plane_to_sphere(chart, chart.r_norm * cmath.exp(1j * phi))
        diff = (base.theta - moved.theta) % (2 * math.pi)
        assert diff == pytest.approx(phi, abs=1e-12)

    def test_round_trip(self, chart):
        rng = np.random.default_rng(29)
        for _ in range(100):
            p = SphericalPoint(rng.uniform(0, 2 * math.pi), rng.uniform(-0.99, 0.99))
            z = sphere_to_plane(chart, p)
            q = plane_to_sphere(chart, z)
            assert abs(q.rho - p.rho) < 1e-12
            assert abs(cmath.exp(1j * q.theta) - cmath.exp(1j * p.theta)) < 1e-12


class TestLambertMap:
    def test_fixes_normalization_parallel(self, chart):
        p = SphericalPoint(1.2, RHO1)
        c = lambert_map(chart, p)
        assert c.slant == pytest.approx(SLANT_RHO1_ROUNDED_A, abs=1e-12)
        assert c.theta == pytest.approx(p.theta, abs=1e-12)
        x, y, z = c.xyz
        assert z == pytest.approx(RHO1, abs=1e-12)

    def test_longitude_preserved(self, chart):
        # the orientation flip of the inversion is absorbed: longitudes map
        # forward, not mirrored
        for theta in (0.1, 2.0, 4.5):
            c = lambert_map(chart, SphericalPoint(theta, 0.3))
            assert c.theta == pytest.approx(theta, abs=1e-12)

    def test_north_pole_limit(self, chart):
        assert lambert_map(chart, SphericalPoint(0.0, 1 - 1e-9)).slant < 1e-3

    def test_agrees_with_slant_formula(self, chart_opt):
        # two independent code paths: composition through the chart plane
        # versus the closed slant-distance formula
        rng = np.random.default_rng(31)
        for _ in range(100):
            rho = rng.uniform(-0.9, 0.95)
            p = SphericalPoint(rng.uniform(0, 2 * math.pi), rho)
            via_map = lambert_map(chart_opt, p).slant
            via_formula = lambert_slant_distance(chart_opt, math.acos(rho))
            assert abs(via_map - via_formula) <= 1e-10
        assert lambert_map(chart_opt, SphericalPoint(0.0, RHO2)).slant == pytest.approx(
            SLANT_AT_RHO2, abs=1e-11
        )

    def test_conformality_and_stretch(self, chart_opt):
        # finite differences in two principal directions: the local stretch
        # is direction-independent and equals the closed-form constant
        rng = np.random.default_rng(37)
        h = 1e-6
        for _ in range(1000):
            theta = rng.uniform(0, 2 * math.pi)
            rho = rng.uniform(-0.8, 0.95)
            pts_t = (SphericalPoint(theta - h, rho), SphericalPoint(theta + h, rho))
            pts_r = (SphericalPoint(theta, rho - h), SphericalPoint(theta, rho + h))
            ratios = []
            for pa, pb in (pts_t, pts_r):
                num = math.dist(
                    lambert_map(chart_opt, pa).xyz, lambert_map(chart_opt, pb).xyz
                )
                den = math.dist(pa.xyz, pb.xyz)
                ratios.append(num / den)
            assert abs(ratios[0] - ratios[1]) <= 1e-6 * ratios[0]
            expect = lipschitz_constant(rho, chart_opt.alpha, RHO1)
            assert abs(ratios[0] - expect) <= 1e-6 * expect

    def test_commutative_diagram(self, chart):
        # the direct map agrees with the composed route through the power
        # map into the sector followed by rolling the sector up; branch of
        # the power map chosen to land in the sector
        rng = np.random.default_rng(41)
        sa = chart.sin_alpha
        for _ in range(50):
            z = rng.uniform(0.2, 2.5) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            cp = plane_to_cone(chart, z)
            zeta = develop(chart.cone, cp).complex
            theta_norm = cmath.phase(z) % (2 * math.pi)
            expect = abs(z) ** sa * cmath.exp(1j * sa * theta_norm)
            assert abs(zeta - expect) < 1e-12

    def test_stereographic_limit(self):
        # as sin(alpha) -> 1 the image converges to the stereographic
        # projection from the south pole onto the plane of the fixed parallel
        chart = lambert_chart(math.asin(1.0 - 1e-8), RHO1)
        for rho in np.linspace(0.3, 0.95, 10):
            for theta in np.linspace(0.0, 2 * math.pi, 6, endpoint=False):
                c = lambert_map(chart, SphericalPoint(theta, rho))
                psi = c.theta * chart.sin_alpha
                got = c.slant * cmath.exp(1j * psi)
                ref = (1 + RHO1) * math.sqrt((1 - rho) / (1 + rho)) * cmath.exp(
                    1j * theta
                )
                assert abs(got - ref) <= 1e-5 * abs(ref)


class TestSlantDistance:
    def test_normalization_value(self, chart_opt):
        # the bracket collapses to 1 at the normalization colatitude
        eps0 = math.acos(RHO1)
        assert lambert_slant_distance(chart_opt, eps0) == pytest.approx(
            SLANT_AT_RHO1, abs=1e-11
        )

    def test_apex_limit(self, chart_opt):
        assert lambert_slant_distance(chart_opt, 1e-9) < 1e-7

    def test_strictly_increasing(self, chart_opt):
        eps = np.linspace(0.05, math.pi - 0.05, 300)
        vals = [lambert_slant_distance(chart_opt, e) for e in eps]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_near_flat_matches_scaled_stereographic(self):
        chart = lambert_chart(math.asin(1.0 - 1e-12), RHO1)
        for eps in (0.3, 0.8, 1.4, 2.2):
            expect = (1 + RHO1) * math.tan(eps / 2.0)
            assert lambert_slant_distance(chart, eps) == pytest.approx(
                expect, rel=1e-9
            )

    def test_domain(self, chart_opt):
        with pytest.raises(ValueError):
            lambert_slant_distance(chart_opt, 0.0)
        with pytest.raises(ValueError):
            lambert_slant_distance(chart_opt, math.pi)


class TestLipschitzConstant:
    def test_identity_parallel(self):
        assert lipschitz_constant(RHO1, ALPHA_R, RHO1) == 1.0

    def test_equal_stretch_at_optimum(self):
        assert lipschitz_constant(RHO2, ALPHA_R, RHO1) == pytest.approx(1.0, abs=1e-4)
        alpha0 = optimal_alpha_by_root(RHO1, RHO2)
        assert lipschitz_constant(RHO2, alpha0, RHO1) == pytest.approx(1.0, abs=1e-12)

    def test_right_angle_closed_form(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            rho = rng.uniform(-0.99, 0.99)
            rho0 = rng.uniform(-0.99, 0.99)
            expect = (1 + rho0) / (1 + rho)
            assert lipschitz_constant(rho, math.pi / 2, rho0) == pytest.approx(
                expect, rel=1e-14
            )

    def test_log_space_survives_extreme_heights(self):
        v = lipschitz_constant(1 - 1e-15, 0.9, -1 + 1e-15)
        assert math.isfinite(v) and v > 0

    def test_domain(self):
        with pytest.raises(ValueError):
            lipschitz_constant(1.0, 0.9, 0.0)
        with pytest.raises(ValueError):
            lipschitz_constant(0.0, 0.0, 0.0)


class TestMetricRatio:
    def test_unit_at_normalization_radius(self, chart):
        assert metric_ratio(chart.r_norm, chart) == pytest.approx(1.0, abs=1e-12)

    def test_positive_over_six_decades(self, chart):
        for r in np.logspace(-3, 3, 25):
            assert metric_ratio(r, chart) > 0.0

    def test_agrees_with_height_form(self, chart):
        # same quantity, two routes: as a function of the plane radius and
        # as the squared stretch at the matching height
        rng = np.random.default_rng(47)
        u0 = math.sqrt((1 + RHO1) / (1 - RHO1))
        for _ in range(1000):
            rho = rng.uniform(-0.999, 0.999)
            r = chart.r_norm * u0 * math.sqrt((1 - rho) / (1 + rho))
            lam = metric_ratio(r, chart)
            big_l = lipschitz_constant(rho, chart.alpha, RHO1)
            assert abs(lam - big_l * big_l) <= 1e-12 * max(1.0, lam)

    def test_swapped_factor_variant_differs(self, chart):
        # placing (1+rho0)/(1-rho0) on the prefactor and its reciprocal in
        # the bracket gives a different function that only coincides at the
        # normalization radius; guard against regressing to that form
        sa = chart.sin_alpha
        rn2 = chart.r_norm**2
        q = (1 + RHO1) / (1 - RHO1)

        def swapped(r):
            f = r ** (sa - 1) * sa
            return f * f * q * (rn2 / q + r * r) ** 2 / (4.0 * rn2)

        assert swapped(chart.r_norm) == pytest.approx(1.0, abs=1e-12)
        r = 2.0 * chart.r_norm
        assert abs(swapped(r) - metric_ratio(r, chart)) > 1e-3

    def test_domain(self, chart):
        with pytest.raises(ValueError):
            metric_ratio(0.0, chart)
