import math

import numpy as np
import pytest

from conicmaps import (
    Cone,
    ConePoint,
    ConicalAnnulus,
    apex_offset,
    cone_annulus_modulus,
    cone_through_parallels,
    cone_touching_parallel,
    develop,
    second_intersection_height,
    sphere_cone_intersections,
)
from conicmaps.errors import (
    ConditionViolation,
    NoIntersection,
    TangentIntersection,
    UnsupportedGeometry,
)
from conftest import (
    ALPHA_THROUGH,
    APEX_ROUNDED_A,
    APEX_THROUGH,
    MOD_B,
    PUBLISHED,
    RHO1,
    RHO2,
    RHO_UPPER_LAMBERT,
    S1_THROUGH,
    S2_THROUGH,
    SIN_ALPHA_THROUGH,
)


def surface_residual(cone: Cone, xyz) -> float:
    x, y, z = xyz
    return abs(z - (cone.apex_z - math.hypot(x, y) / cone.tan_alpha))


class TestConeTouchingParallel:
    def test_canonical_apex(self):
        cone = cone_touching_parallel(math.asin(0.821529), RHO1)
        assert cone.apex_z == pytest.approx(APEX_ROUNDED_A, abs=1e-12)

    def test_near_right_angle_accepted(self):
        # the apex offset vanishes as alpha -> pi/2; the construction stays
        # legal all the way (the second circle leaves the downward nappe)
        cone = cone_touching_parallel(math.asin(1.0 - 1e-8), 0.0)
        assert cone.apex_z == pytest.approx(apex_offset(cone.alpha, 0.0), abs=1e-15)
        assert cone.apex_z > 0.0

    def test_upper_circle_request_rejected(self):
        # rho0 = 0.99 with a narrow cone puts the requested parallel on the
        # *upper* intersection circle (the lower one sits near -0.94)
        with pytest.raises(ConditionViolation):
            cone_touching_parallel(0.1, 0.99)

    def test_tangency_rejected(self):
        # rho0 = sin(alpha) makes the generator tangent to the sphere,
        # which is the only way the two-circle condition can fail
        with pytest.raises(ConditionViolation):
            cone_touching_parallel(math.asin(0.6), 0.6)

    def test_near_tangency_accepted(self):
        # sin(alpha) exceeds rho0 by 1e-12, so the parallel is still the
        # lower circle; the intersection quadratic itself reads this cone as
        # tangent, so the parallel is checked against the surface instead
        cone = cone_touching_parallel(math.asin(0.5) + 1e-12, 0.5)
        assert surface_residual(cone, (math.sqrt(0.75), 0.0, 0.5)) <= 1e-10

    def test_point_on_surface(self):
        cone = cone_touching_parallel(0.9, 0.5)
        p = cone.point(0.7, 1.1)
        assert surface_residual(cone, p.xyz) < 1e-12
        assert math.dist(p.xyz, (0.0, 0.0, cone.apex_z)) == pytest.approx(
            0.7, abs=1e-12
        )

    def test_lower_intersection_self_consistency(self):
        # re-solving the intersection returns rho0 as the lower height;
        # sampled over cones whose apex stays above the sphere
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 200:
            alpha = rng.uniform(0.1, 1.45)
            rho0 = rng.uniform(-0.95, min(math.sin(alpha) - 0.01, 0.95))
            if rho0 <= -0.95 or rho0 + apex_offset(alpha, rho0) <= 1.0 + 1e-6:
                continue
            cone = cone_touching_parallel(alpha, rho0)
            lo, hi = sphere_cone_intersections(cone)
            assert abs(lo - rho0) < 1e-10
            assert hi > lo
            checked += 1


class TestConeThroughParallels:
    def test_canonical_geometry(self):
        cone = cone_through_parallels(RHO1, RHO2)
        assert cone.alpha == pytest.approx(ALPHA_THROUGH, abs=1e-12)
        assert cone.sin_alpha == pytest.approx(SIN_ALPHA_THROUGH, abs=1e-12)
        assert cone.apex_z == pytest.approx(APEX_THROUGH, abs=1e-12)
        # both parallels lie on the surface
        for rho in (RHO1, RHO2):
            r = math.sqrt(1 - rho * rho)
            assert surface_residual(cone, (r, 0.0, rho)) < 1e-12
        assert cone.slant_at_height(RHO1) == pytest.approx(S1_THROUGH, abs=1e-12)
        assert cone.slant_at_height(RHO2) == pytest.approx(S2_THROUGH, abs=1e-12)

    @pytest.mark.parametrize("above", [0.0, 1.0])
    def test_no_slant_at_or_above_the_apex(self, above):
        cone = cone_through_parallels(RHO1, RHO2)
        with pytest.raises(ValueError, match="^height is at or above the apex$"):
            cone.slant_at_height(cone.apex_z + above)

    def test_tangent_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rho1 = rng.uniform(-0.4, 0.8)
            rho2 = rng.uniform(rho1 + 0.05, 0.95)
            if rho1 + rho2 <= 1e-3:
                continue
            cone = cone_through_parallels(rho1, rho2)
            expect = (math.sqrt(1 - rho1**2) - math.sqrt(1 - rho2**2)) / (rho2 - rho1)
            assert cone.tan_alpha == pytest.approx(expect, rel=1e-12)

    def test_degenerate_heights_rejected(self):
        with pytest.raises(ValueError):
            cone_through_parallels(0.5, 0.5)

    def test_symmetric_pair_rejected(self):
        with pytest.raises(UnsupportedGeometry):
            cone_through_parallels(-0.4, 0.4)

    def test_apex_at_infinity_rejected(self):
        # tan(alpha) = 5e-324, so r1 / tan(alpha) overflows
        with pytest.raises(UnsupportedGeometry, match=r"^rho1 \+ rho2 = 1\.4822e-323 puts"):
            cone_through_parallels(5e-324, 1e-323)


class TestIntersections:
    def test_lambert_cone_heights(self):
        cone = cone_touching_parallel(math.asin(0.821529), RHO1)
        lo, hi = sphere_cone_intersections(cone)
        assert lo == pytest.approx(RHO1, abs=1e-10)
        target, tol = PUBLISHED["upper_intersection"]
        assert hi == pytest.approx(target, abs=tol)
        cone_opt = cone_touching_parallel(math.asin(0.8215294207046442), RHO1)
        assert sphere_cone_intersections(cone_opt)[1] == pytest.approx(
            RHO_UPPER_LAMBERT, abs=1e-11
        )

    def test_construction_inverse(self):
        cone = cone_through_parallels(RHO1, RHO2)
        lo, hi = sphere_cone_intersections(cone)
        assert lo == pytest.approx(RHO1, abs=1e-12)
        assert hi == pytest.approx(RHO2, abs=1e-12)

    def test_miss(self):
        # apex_z * sin(alpha) = 10 * sin(0.2) = 1.99 > 1: the cone misses
        with pytest.raises(NoIntersection):
            sphere_cone_intersections(Cone(0.2, 10.0))

    def test_tangency_detected(self):
        alpha = math.asin(0.6)
        with pytest.raises(TangentIntersection):
            sphere_cone_intersections(Cone(alpha, 1.0 / 0.6))
        with pytest.raises(TangentIntersection):
            sphere_cone_intersections(Cone(alpha, (1.0 - 1e-13) / 0.6))

    def test_near_tangency_heights_merge(self):
        alpha = math.asin(0.6)
        lo, hi = sphere_cone_intersections(Cone(alpha, (1.0 - 1e-7) / 0.6))
        assert hi - lo < 2e-3
        assert lo < 0.6 < hi

    def test_single_nappe_circle_rejected(self):
        # apex inside the sphere: only one circle on the downward nappe
        cone = cone_touching_parallel(math.asin(1.0 - 1e-8), 0.0)
        with pytest.raises(NoIntersection):
            sphere_cone_intersections(cone)


class TestDevelop:
    def test_unit_seam(self):
        cone = cone_through_parallels(RHO1, RHO2)
        z = develop(cone, cone.point(1.0, 0.0))
        assert abs(z.complex - 1.0) < 1e-15

    def test_sector_closure(self):
        cone = cone_through_parallels(RHO1, RHO2)
        theta = 2 * math.pi - 1e-9
        z = develop(cone, cone.point(0.8, theta))
        assert z.angle == pytest.approx(theta * cone.sin_alpha, abs=1e-8)

    def test_wrong_cone_rejected(self):
        c1 = cone_through_parallels(RHO1, RHO2)
        c2 = cone_touching_parallel(0.9, 0.5)
        with pytest.raises(ValueError):
            develop(c1, c2.point(1.0, 0.0))

    def test_parallel_circumference(self):
        # chord-sum the developed image of a full parallel: length must be
        # 2 pi s sin(alpha)
        cone = cone_through_parallels(RHO1, RHO2)
        s = 0.8
        theta = np.linspace(0.0, 2 * math.pi, 100_001)
        z = s * np.exp(1j * theta * cone.sin_alpha)
        length = np.abs(np.diff(z)).sum()
        assert length == pytest.approx(2 * math.pi * s * cone.sin_alpha, rel=1e-8)

    def test_isometry_on_geodesics(self):
        # a straight segment in the sector pulls back to a cone geodesic;
        # its ambient 3D arc length (chord sums) must equal the planar length
        cone = cone_through_parallels(RHO1, RHO2)
        sa = cone.sin_alpha
        rng = np.random.default_rng(17)
        for _ in range(4):
            phi = rng.uniform(0.3, 2.5, size=2)
            while abs(phi[1] - phi[0]) > 1.5:
                phi = rng.uniform(0.3, 2.5, size=2)
            r = rng.uniform(0.5, 1.2, size=2)
            z1, z2 = r * np.exp(1j * phi)
            t = np.linspace(0.0, 1.0, 100_001)
            z = z1 + t * (z2 - z1)
            slant = np.abs(z)
            ang = np.unwrap(np.angle(z))
            ang += phi[0] - ang[0]
            theta = ang / sa
            radial = slant * sa
            pts = np.stack(
                [
                    radial * np.cos(theta),
                    radial * np.sin(theta),
                    cone.apex_z - slant * cone.cos_alpha,
                ],
                axis=1,
            )
            length3d = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
            assert abs(length3d - abs(z2 - z1)) < 1e-9


class TestConeAnnulusModulus:
    def test_published_value(self):
        cone = cone_through_parallels(RHO1, RHO2)
        b = ConicalAnnulus(cone, S2_THROUGH, S1_THROUGH)
        target, tol = PUBLISHED["mod_b"]
        assert cone_annulus_modulus(b) == pytest.approx(target, abs=tol)
        assert cone_annulus_modulus(b) == pytest.approx(MOD_B, abs=1e-14)

    def test_unit_modulus(self):
        cone = cone_through_parallels(RHO1, RHO2)
        s_in = 0.3
        s_out = s_in * math.exp(2 * math.pi * cone.sin_alpha)
        assert cone_annulus_modulus(ConicalAnnulus(cone, s_in, s_out)) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_additivity(self):
        cone = cone_through_parallels(RHO1, RHO2)
        total = cone_annulus_modulus(ConicalAnnulus(cone, 0.2, 0.9))
        parts = cone_annulus_modulus(ConicalAnnulus(cone, 0.2, 0.5)) + (
            cone_annulus_modulus(ConicalAnnulus(cone, 0.5, 0.9))
        )
        assert abs(total - parts) < 1e-12

    def test_degenerate_rejected(self):
        cone = cone_through_parallels(RHO1, RHO2)
        with pytest.raises(ValueError):
            ConicalAnnulus(cone, 0.5, 0.5)


def test_second_intersection_height_matches_quadratic():
    cone = cone_touching_parallel(math.asin(0.8215294207046442), RHO1)
    lo, hi = sphere_cone_intersections(cone)
    assert second_intersection_height(cone, lo) == pytest.approx(hi, abs=1e-15)
    assert second_intersection_height(cone, hi) == pytest.approx(lo, abs=1e-15)
    assert second_intersection_height(cone, RHO1) == pytest.approx(RHO_UPPER_LAMBERT, abs=1e-11)


def test_second_intersection_height_of_near_tangent_cone():
    # circles 1e-7 apart: the quadratic's discriminant (~4e-15) reads as
    # tangency, the sum of its roots does not
    rho1, rho2 = 0.5, 0.5000001
    cone = cone_touching_parallel(math.asin(0.5 * (rho1 + rho2)), rho1)
    with pytest.raises(TangentIntersection):
        sphere_cone_intersections(cone)
    assert second_intersection_height(cone, rho1) == pytest.approx(rho2, abs=1e-13)


def test_second_intersection_height_rejects_upper_nappe():
    cone = cone_touching_parallel(math.asin(1.0 - 1e-8), 0.0)
    with pytest.raises(NoIntersection):
        second_intersection_height(cone, 0.0)
