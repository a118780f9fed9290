"""The normalized conformal map from the twice-punctured sphere to a cone.

The map factors through an auxiliary "chart plane".  One leg takes the chart
plane onto the cone: z with polar coordinates (R, Theta) goes to the surface
point of slant R^sin(alpha) at longitude Theta (the power map z -> z^sin(alpha)
into the development sector, followed by rolling the sector up).  The other
leg takes the chart plane onto the sphere: invert the plane with

    w = r_norm * sqrt((1+rho0)/(1-rho0)) / z

and pull w back through the stereographic projection.  Both legs send the
circle |z| = r_norm, with

    r_norm = (sqrt(1 - rho0^2) / sin(alpha)) ** (1 / sin(alpha)),

onto the parallel at height rho0, so the composition sphere -> plane -> cone
is the identity on that parallel (up to unrolling) and is conformal
everywhere else.

Sign convention: the plane inversion 1/z reverses the angular coordinate, so
the raw composition would map increasing longitude to decreasing development
angle.  ``lambert_map`` absorbs the flip by conjugating the chart-plane point,
so increasing spherical longitude always maps to increasing longitude on the
cone.  ``plane_to_cone`` and ``plane_to_sphere`` keep their displayed
formulas untouched.
"""

from __future__ import annotations

import cmath
import math

from .cone import Cone, ConePoint, cone_touching_parallel
from .sphere import (
    TAU,
    PlanarPoint,
    SphericalPoint,
    _check_open_unit,
    _parallel_radius,
    _Record,
    stereographic_project,
    stereographic_unproject,
)


class LambertChart(_Record):
    """Normalization data of the conformal sphere-to-cone map.

    ``rho0`` is the height of the parallel fixed by the map; ``r_norm`` is the
    chart-plane radius that lands on it; ``cone`` is the cone through that
    parallel (its lower intersection circle) with half-apex angle ``alpha``.
    Instances are immutable; all evaluations are closed-form.
    """

    alpha: float
    rho0: float
    r_norm: float
    cone: Cone

    @property
    def sin_alpha(self) -> float:
        return math.sin(self.alpha)

    @property
    def _u0(self) -> float:
        # stereographic radius of the normalization parallel
        return math.sqrt((1.0 + self.rho0) / (1.0 - self.rho0))


def lambert_chart(alpha: float, rho0: float) -> LambertChart:
    """Build the chart for half-apex angle ``alpha`` normalized at ``rho0``."""
    cone = cone_touching_parallel(alpha, rho0)
    sa = math.sin(alpha)
    r_norm = (_parallel_radius(rho0) / sa) ** (1.0 / sa)
    return LambertChart(alpha, rho0, r_norm, cone)


def _as_complex(z: PlanarPoint | complex) -> complex:
    z = z.complex if isinstance(z, PlanarPoint) else complex(z)
    if z == 0:
        raise ValueError("the chart-plane origin is the puncture")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("non-finite chart-plane point")
    return z


def plane_to_cone(chart: LambertChart, z: PlanarPoint | complex) -> ConePoint:
    """Chart plane onto the cone: (R, Theta) -> slant R^sin(alpha) at
    longitude Theta."""
    z = _as_complex(z)
    slant = abs(z) ** chart.sin_alpha
    return ConePoint(chart.cone, slant, cmath.phase(z) % TAU)


def plane_to_sphere(chart: LambertChart, z: PlanarPoint | complex) -> SphericalPoint:
    """Chart plane onto the sphere through the normalized inversion.

    Rotation-equivariant with reversed angular orientation: advancing arg(z)
    by phi lowers the spherical longitude by phi.  |z| = r_norm lands on the
    parallel at height rho0.
    """
    z = _as_complex(z)
    return stereographic_unproject(chart.r_norm * chart._u0 / z)


def sphere_to_plane(chart: LambertChart, p: SphericalPoint) -> PlanarPoint:
    """Inverse of :func:`plane_to_sphere` (the inversion is an involution)."""
    w = stereographic_project(p).complex
    z = chart.r_norm * chart._u0 / w
    return PlanarPoint(z.real, z.imag)


def lambert_map(chart: LambertChart, p: SphericalPoint) -> ConePoint:
    """Conformal image of a sphere point on the cone.

    Composes :func:`sphere_to_plane` with :func:`plane_to_cone`, conjugating
    in between so longitude is preserved rather than reversed (see module
    docstring).  Fixes the rho0 parallel pointwise up to unrolling and sends
    heights rho -> 1 toward the apex.
    """
    z = sphere_to_plane(chart, p).complex
    return plane_to_cone(chart, z.conjugate())


def lambert_slant_distance(chart: LambertChart, epsilon: float) -> float:
    """Slant distance from the apex of the image of the parallel at
    colatitude ``epsilon``, by the closed formula

        (sqrt(1-rho0^2)/sin(alpha))
            * ((1+rho0)/(1-rho0))^(sin(alpha)/2) * tan(epsilon/2)^sin(alpha).

    Strictly increasing in epsilon; tends to 0 at the north pole.
    """
    if not 0.0 < epsilon < math.pi:
        raise ValueError(f"colatitude must lie in (0, pi), got {epsilon}")
    sa = chart.sin_alpha
    rho0 = chart.rho0
    log_s = (
        0.5 * math.log1p(-rho0 * rho0)
        - math.log(sa)
        + 0.5 * sa * (math.log1p(rho0) - math.log1p(-rho0))
        + sa * math.log(math.tan(0.5 * epsilon))
    )
    return math.exp(log_s)


def _log_f(x: float, y: float, z: float) -> float:
    """Unchecked log F(x, y, z) = log L(x)^2, y = sin(alpha) (float or array), rho0 = z."""
    return (1.0 + y) * (math.log1p(z) - math.log1p(x)) + (1.0 - y) * (
        math.log1p(-z) - math.log1p(-x)
    )


def lipschitz_constant(rho: float, alpha: float, rho0: float) -> float:
    """Infinitesimal stretch of the normalized conformal map at height rho:

        L = sqrt( (1-rho0)^(1-sin a) (1+rho0)^(1+sin a)
                  / ((1-rho)^(1-sin a) (1+rho)^(1+sin a)) ).

    Evaluated in log-space so heights near +/-1 neither overflow nor
    underflow.  L(rho0) = 1.  The boundary angle alpha = pi/2 is admitted as
    a limit.
    """
    _check_open_unit("rho", rho)
    _check_open_unit("rho0", rho0)
    if not 0.0 < alpha <= math.pi / 2.0:
        raise ValueError(f"alpha must lie in (0, pi/2], got {alpha}")
    return math.exp(0.5 * _log_f(rho, math.sin(alpha), rho0))


def metric_ratio(r: float, chart: LambertChart) -> float:
    """Ratio of the cone-side to the sphere-side pull-back metric at
    chart-plane radius ``r``; equals the squared stretch L^2 at the matching
    height.

    The sphere-side pull-back of the inversion leg is
    4 rn^2 q (rn^2 q + r^2)^(-2) |dz|^2 with q = (1+rho0)/(1-rho0), so

        ratio(r) = (r^(sin a - 1) sin a)^2 * (1/(4 rn^2)) * (1/q)
                   * (rn^2 q + r^2)^2.

    Swapping q with 1/q between the prefactor and the bracket changes the
    value everywhere except at r = r_norm.
    """
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    sa = chart.sin_alpha
    rn2 = chart.r_norm * chart.r_norm
    q = (1.0 + chart.rho0) / (1.0 - chart.rho0)
    cone_factor = (r ** (sa - 1.0)) * sa
    return cone_factor * cone_factor * (rn2 * q + r * r) ** 2 / (4.0 * rn2 * q)
