import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conicmaps import (
    SphericalAnnulus,
    SphericalPoint,
    annulus_modulus,
    spherical_distance,
    spherical_midpoint,
    stereographic_project,
    stereographic_unproject,
)
from conftest import MOD_A, MOD_A_0_05, PUBLISHED, RHO1, RHO2, STEREO_RADIUS_RHO1

heights = st.floats(min_value=-0.999999, max_value=0.999999)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)


class TestSphericalPoint:
    def test_embedding_is_unit(self):
        p = SphericalPoint(1.3, 0.42)
        assert abs(math.dist(p.xyz, (0, 0, 0)) - 1.0) < 1e-12

    def test_poles_rejected(self):
        with pytest.raises(ValueError):
            SphericalPoint(0.0, 1.0)
        with pytest.raises(ValueError):
            SphericalPoint(0.0, -1.0)

    def test_theta_normalized(self):
        assert SphericalPoint(-1.0, 0.0).theta == pytest.approx(2 * math.pi - 1.0)

    def test_colatitude(self):
        assert SphericalPoint(0.0, 0.5).colatitude == pytest.approx(math.acos(0.5))

    def test_latitude(self):
        assert SphericalPoint(0.0, 0.5).latitude == math.asin(0.5)
        assert SphericalPoint(0.0, -0.5).latitude == pytest.approx(-math.pi / 6, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="^zero vector has no direction$"):
            SphericalPoint.from_xyz(0.0, 0.0, 0.0)


class TestStereographic:
    def test_equator_maps_to_unit_circle(self):
        w = stereographic_project(SphericalPoint(0.0, 0.0))
        assert abs(w.complex - 1.0) < 1e-15

    def test_lower_parallel_radius(self):
        w = stereographic_project(SphericalPoint(math.pi / 2, RHO1))
        assert abs(w.complex - STEREO_RADIUS_RHO1 * 1j) < 1e-12

    def test_south_pole_limit(self):
        w = stereographic_project(SphericalPoint(0.0, -1.0 + 1e-10))
        assert w.radius < 1e-4

    def test_unproject_unit(self):
        p = stereographic_unproject(1.0 + 0.0j)
        assert p.theta == pytest.approx(0.0, abs=1e-15)
        assert p.rho == pytest.approx(0.0, abs=1e-15)

    def test_unproject_lower_parallel(self):
        p = stereographic_unproject(STEREO_RADIUS_RHO1 * 1j)
        assert p.theta == pytest.approx(math.pi / 2, abs=1e-12)
        assert p.rho == pytest.approx(RHO1, abs=1e-12)

    def test_unproject_north_pole_limit(self):
        p = stereographic_unproject(1e6 + 0.0j)
        assert p.rho == pytest.approx(1.0 - 2e-12, abs=1e-15)

    def test_unproject_rejects_origin_and_nonfinite(self):
        with pytest.raises(ValueError):
            stereographic_unproject(0.0 + 0.0j)
        with pytest.raises(ValueError):
            stereographic_unproject(complex(math.inf, 0.0))

    @given(theta=angles, rho=heights)
    def test_round_trip(self, theta, rho):
        p = SphericalPoint(theta, rho)
        q = stereographic_unproject(stereographic_project(p))
        assert abs(q.rho - p.rho) < 1e-12
        # compare longitudes on the circle to avoid the wrap at 2 pi
        assert abs(cmath.exp(1j * q.theta) - cmath.exp(1j * p.theta)) < 1e-12

    def test_round_trip_bulk(self):
        rng = np.random.default_rng(19)
        for _ in range(10_000):
            p = SphericalPoint(rng.uniform(0, 2 * math.pi), rng.uniform(-0.9999, 0.9999))
            q = stereographic_unproject(stereographic_project(p))
            assert abs(q.rho - p.rho) < 1e-12
            assert abs(cmath.exp(1j * q.theta) - cmath.exp(1j * p.theta)) < 1e-12

    def test_conformality_by_finite_differences(self):
        # the stretch |dw|/|dx| must not depend on direction; it also has to
        # match the known factor (1 + |w|^2) / 2 of the inverse pull-back
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(200):
            theta = rng.uniform(0, 2 * math.pi)
            rho = rng.uniform(-0.99, 0.99)

            def chord(a, b):
                return math.dist(a.xyz, b.xyz)

            p_t = (SphericalPoint(theta - h, rho), SphericalPoint(theta + h, rho))
            p_r = (SphericalPoint(theta, rho - h), SphericalPoint(theta, rho + h))
            ratios = []
            for pa, pb in (p_t, p_r):
                dw = abs(
                    stereographic_project(pb).complex
                    - stereographic_project(pa).complex
                )
                ratios.append(dw / chord(pa, pb))
            assert abs(ratios[0] - ratios[1]) <= 1e-6 * ratios[0]
            w = stereographic_project(SphericalPoint(theta, rho)).complex
            expected = (1.0 + abs(w) ** 2) / 2.0
            assert abs(ratios[0] - expected) <= 1e-6 * expected


class TestDistanceAndMidpoint:
    def test_coincident(self):
        p = SphericalPoint(0.3, 0.2)
        assert spherical_distance(p, p) == 0.0

    def test_antipodal(self):
        p = SphericalPoint(0.0, 0.4)
        q = SphericalPoint(math.pi, -0.4)
        assert spherical_distance(p, q) == pytest.approx(math.pi, abs=1e-12)

    def test_quarter_circle(self):
        p = SphericalPoint(0.0, 0.0)
        q = SphericalPoint(math.pi / 2, 0.0)
        assert spherical_distance(p, q) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_midpoint_of_coincident_points(self):
        p = SphericalPoint(1.0, 0.3)
        m = spherical_midpoint(p, p)
        assert spherical_distance(m, p) < 1e-12

    def test_midpoint_symmetry(self):
        m = spherical_midpoint(SphericalPoint(0.0, 0.0), SphericalPoint(math.pi / 2, 0.0))
        assert m.theta == pytest.approx(math.pi / 4, abs=1e-12)
        assert m.rho == pytest.approx(0.0, abs=1e-12)

    def test_midpoint_near_degenerate(self):
        p = SphericalPoint(0.0, 0.0)
        q = SphericalPoint(math.pi, 1.0 - 1e-9)
        m = spherical_midpoint(p, q)
        assert abs(spherical_distance(m, p) - spherical_distance(m, q)) < 1e-9

    def test_midpoint_antipodal_rejected(self):
        with pytest.raises(ValueError):
            spherical_midpoint(SphericalPoint(0.0, 0.4), SphericalPoint(math.pi, -0.4))

    @given(t1=angles, r1=heights, t2=angles, r2=heights)
    def test_midpoint_equidistant(self, t1, r1, t2, r2):
        p, q = SphericalPoint(t1, r1), SphericalPoint(t2, r2)
        # skip nearly antipodal draws: the midpoint direction loses about
        # eps/|P+Q| digits there, so the 1e-12 equidistance bound needs a
        # lower bound on |P+Q|
        if math.dist(p.xyz, tuple(-c for c in q.xyz)) < 1e-3:
            return
        m = spherical_midpoint(p, q)
        assert abs(spherical_distance(m, p) - spherical_distance(m, q)) < 1e-12

    def test_midpoint_spread_inequality(self):
        # positive curvature: the segment joining the midpoints of two sides
        # of a spherical triangle is strictly longer than half the third side
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 500:
            v = rng.normal(size=(3, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            if np.any(np.abs(v[:, 2]) > 0.999999):
                continue
            a, b, c = (SphericalPoint.from_xyz(*row) for row in v)
            sides = (
                spherical_distance(a, b),
                spherical_distance(b, c),
                spherical_distance(a, c),
            )
            if not all(0.1 < s < 2.5 for s in sides):
                continue
            d = spherical_midpoint(a, b)
            e = spherical_midpoint(b, c)
            assert spherical_distance(d, e) > spherical_distance(a, c) / 2.0
            checked += 1


class TestAnnulusModulus:
    def test_published_value(self):
        target, tol = PUBLISHED["mod_a"]
        assert annulus_modulus(SphericalAnnulus(RHO1, RHO2)) == pytest.approx(
            target, abs=tol
        )
        assert annulus_modulus(SphericalAnnulus(RHO1, RHO2)) == pytest.approx(
            MOD_A, abs=1e-15
        )

    def test_log3_value(self):
        assert annulus_modulus(SphericalAnnulus(0.0, 0.5)) == pytest.approx(
            MOD_A_0_05, abs=1e-15
        )

    def test_monotone_in_width(self):
        assert annulus_modulus(SphericalAnnulus(-0.3, 0.3)) < annulus_modulus(
            SphericalAnnulus(-0.5, 0.5)
        )

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            SphericalAnnulus(0.5, 0.5)
        with pytest.raises(ValueError):
            SphericalAnnulus(0.7, 0.2)

    @given(
        r=st.lists(
            st.floats(min_value=-0.999, max_value=0.999), min_size=3, max_size=3,
            unique=True,
        )
    )
    def test_additive_over_concatenation(self, r):
        r1, r2, r3 = sorted(r)
        if r2 - r1 < 1e-9 or r3 - r2 < 1e-9:
            return
        total = annulus_modulus(SphericalAnnulus(r1, r3))
        parts = annulus_modulus(SphericalAnnulus(r1, r2)) + annulus_modulus(
            SphericalAnnulus(r2, r3)
        )
        assert abs(total - parts) < 1e-12

    def test_strictly_monotone_in_each_endpoint(self):
        base = annulus_modulus(SphericalAnnulus(0.1, 0.6))
        assert annulus_modulus(SphericalAnnulus(0.05, 0.6)) > base
        assert annulus_modulus(SphericalAnnulus(0.1, 0.65)) > base
