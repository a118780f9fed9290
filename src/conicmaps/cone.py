"""Circular cones coaxial with the poles and their planar development.

All cones here are rotationally symmetric about the z-axis, open downward,
with the apex at (0, 0, apex_z); ``alpha`` is the half-apex angle, i.e. the
angle between the axis and a generator.  The surface satisfies

    Z = apex_z - sqrt(X^2 + Y^2) / tan(alpha).

Cutting a cone along one generator and unrolling it gives a planar sector of
angle 2*pi*sin(alpha); a surface point at slant distance ``s`` from the apex
and spherical longitude ``theta`` develops to the sector point
``s * exp(i * theta * sin(alpha))``.
"""

from __future__ import annotations

import math

from .errors import (
    ConditionViolation,
    NoIntersection,
    TangentIntersection,
    UnsupportedGeometry,
)
from .sphere import (
    TAU, PlanarPoint, _check_band, _check_finite, _check_open_unit, _parallel_radius, _Record
)


def apex_offset(alpha: float, rho: float) -> float:
    """Axial distance from the plane of the parallel at height ``rho`` to the
    apex of a cone with half-apex angle ``alpha`` passing through it:
    sqrt(1 - rho^2) / tan(alpha)."""
    return _parallel_radius(rho) / math.tan(alpha)


class Cone(_Record):
    """Downward cone with apex (0, 0, apex_z) and half-apex angle alpha."""

    alpha: float
    apex_z: float

    def __post_init__(self):
        _check_finite(self.alpha, self.apex_z)
        if not 0.0 < self.alpha < math.pi / 2.0:
            raise ValueError(f"half-apex angle must lie in (0, pi/2), got {self.alpha}")

    @property
    def sin_alpha(self) -> float:
        return math.sin(self.alpha)

    @property
    def cos_alpha(self) -> float:
        return math.cos(self.alpha)

    @property
    def tan_alpha(self) -> float:
        return math.tan(self.alpha)

    def slant_at_height(self, z: float) -> float:
        """Slant distance from the apex to the horizontal circle at height z."""
        if z >= self.apex_z:
            raise ValueError("height is at or above the apex")
        return (self.apex_z - z) / self.cos_alpha

    def point(self, slant: float, theta: float) -> "ConePoint":
        return ConePoint(self, slant, theta)


class ConePoint(_Record):
    """Surface point given by slant distance from the apex and longitude."""

    cone: Cone
    slant: float
    theta: float

    def __post_init__(self):
        _check_finite(self.slant, self.theta)
        if self.slant <= 0.0:
            raise ValueError("slant distance must be positive (apex excluded)")
        object.__setattr__(self, "theta", self.theta % TAU)

    @property
    def xyz(self) -> tuple[float, float, float]:
        r = self.slant * self.cone.sin_alpha
        return (
            r * math.cos(self.theta),
            r * math.sin(self.theta),
            self.cone.apex_z - self.slant * self.cone.cos_alpha,
        )


class ConicalAnnulus(_Record):
    """Annulus on a cone bounded by the circles at two slant distances."""

    cone: Cone
    s_inner: float
    s_outer: float

    def __post_init__(self):
        if not 0.0 < self.s_inner < self.s_outer:
            raise ValueError(
                f"need 0 < s_inner < s_outer, got ({self.s_inner}, {self.s_outer})"
            )


def _intersection_heights(alpha: float, apex_z: float) -> tuple[float, float]:
    """Roots of the sphere/cone height quadratic, without nappe filtering.

    Heights z of intersection circles satisfy
    (1 + t^2) z^2 - 2 A t^2 z + (A^2 t^2 - 1) = 0 with t = tan(alpha),
    A = apex_z.  The quarter discriminant reduces to 1 + t^2 (1 - A^2);
    the larger root is taken from the direct formula (no cancellation:
    both terms are positive) and the other from Vieta's product.
    """
    t = math.tan(alpha)
    t2 = t * t
    a = 1.0 + t2
    disc4 = 1.0 + t2 * (1.0 - apex_z * apex_z)
    if disc4 < -1e-12:
        raise NoIntersection("cone misses the sphere")
    if disc4 <= 1e-12:
        raise TangentIntersection("cone is tangent to the sphere")
    z_hi = (apex_z * t2 + math.sqrt(disc4)) / a
    z_lo = (apex_z * apex_z * t2 - 1.0) / (a * z_hi)
    return z_lo, z_hi


def cone_touching_parallel(alpha: float, rho0: float) -> Cone:
    """Cone with half-apex angle ``alpha`` whose lower intersection circle
    with the sphere is the parallel at height ``rho0``.

    The apex sits at apex_z = rho0 + apex_offset(alpha, rho0).  Since
    apex_z * sin(alpha) = cos(alpha - asin(rho0)) <= 1, the parallel is the
    lower of the two intersection circles exactly when sin(alpha) > rho0;
    sin(alpha) = rho0 is tangency and sin(alpha) < rho0 puts the parallel on
    the upper circle.  Both are rejected.
    """
    if not 0.0 < alpha < math.pi / 2.0:
        raise ValueError(f"half-apex angle must lie in (0, pi/2), got {alpha}")
    _check_open_unit("rho0", rho0)
    if math.sin(alpha) <= rho0:
        raise ConditionViolation(
            f"sin(alpha) = {math.sin(alpha):.9g} <= rho0 = {rho0}: the parallel "
            "is not the lower intersection circle of the cone and the sphere"
        )
    return Cone(alpha, rho0 + apex_offset(alpha, rho0))


def cone_through_parallels(rho1: float, rho2: float) -> Cone:
    """Cone through both parallels at heights rho1 < rho2.

    With r_i = sqrt(1 - rho_i^2), tan(alpha) = (r1 - r2) / (rho2 - rho1) =
    (rho1 + rho2) / (r1 + r2), the second form free of cancellation.  It is a
    downward cone with apex above the sphere only when rho1 + rho2 > 0;
    other height pairs are rejected, and so are those whose apex overflows.
    """
    _check_band(rho1, rho2)
    r1 = _parallel_radius(rho1)
    tana = (rho1 + rho2) / (r1 + _parallel_radius(rho2))
    if tana <= 0.0:
        raise UnsupportedGeometry(
            "parallels of equal or inverted radii (rho1 + rho2 <= 0) give a "
            "cylinder or an upward cone; not supported"
        )
    apex = rho1 + r1 / tana
    if not math.isfinite(apex):
        raise UnsupportedGeometry(
            f"rho1 + rho2 = {rho1 + rho2:.6g} puts the apex of the cone through both "
            "parallels at infinity; not supported"
        )
    return Cone(math.atan(tana), apex)


def sphere_cone_intersections(c: Cone) -> tuple[float, float]:
    """Heights of the two circles where the cone crosses the unit sphere.

    Raises :class:`NoIntersection` / :class:`TangentIntersection` when the
    discriminant is non-positive, and :class:`NoIntersection` when one of the
    quadratic roots falls on the mirror (upward) nappe, i.e. above the apex.
    """
    z_lo, z_hi = _intersection_heights(c.alpha, c.apex_z)
    if z_hi > c.apex_z + 1e-12 or z_lo > c.apex_z + 1e-12:
        raise NoIntersection(
            "the downward nappe meets the sphere in fewer than two circles"
        )
    return z_lo, z_hi


def second_intersection_height(c: Cone, z0: float) -> float:
    """Height of the other circle where a cone through the circle at height
    ``z0`` crosses the unit sphere.

    The two roots of the height quadratic sum to 2 A t^2 / (1 + t^2), so no
    discriminant is taken: this holds also for a cone whose two circles are
    closer than the tangency tolerance of :func:`sphere_cone_intersections`,
    such as the Lambert cone of a very narrow band.  A root above the apex
    raises :class:`NoIntersection` as there.
    """
    t2 = math.tan(c.alpha) ** 2
    z = 2.0 * c.apex_z * t2 / (1.0 + t2) - z0
    if z > c.apex_z + 1e-12:
        raise NoIntersection(
            "the downward nappe meets the sphere in fewer than two circles"
        )
    return z


def develop(c: Cone, p: ConePoint) -> PlanarPoint:
    """Unroll the cone: the image of (slant, theta) is the sector point
    slant * exp(i * theta * sin(alpha)).

    The development is an isometry; the seam theta = 0 maps to the positive
    real axis and a full parallel sweep covers the sector angle
    2*pi*sin(alpha).
    """
    if p.cone != c:
        raise ValueError("point does not lie on this cone")
    ang = p.theta * c.sin_alpha
    return PlanarPoint(p.slant * math.cos(ang), p.slant * math.sin(ang))


def cone_annulus_modulus(b: ConicalAnnulus) -> float:
    """Conformal modulus of a conical annulus.

    Developing onto the sector and straightening the sector to a full plane
    annulus with the power map of exponent 1/sin(alpha) gives
    log(s_outer / s_inner) / (2 * pi * sin(alpha)).
    """
    return math.log(b.s_outer / b.s_inner) / (TAU * b.cone.sin_alpha)
