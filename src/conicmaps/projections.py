"""The six conical projections of a spherical annulus, as meridian profiles.

Every projection considered here is rotationally symmetric: meridians go to
straight rays through the developed apex and parallels to concentric arcs.
Each one is therefore fully described by a cone and a slant-distance profile
s(eps) giving, for spherical colatitude eps, the distance from the apex of
the image of the parallel at that colatitude.  The principal stretches are

    h_meridian(eps) = s'(eps),
    h_parallel(eps) = s(eps) * sin(alpha) / sin(eps).

Kinds and their cones:

* ``lambert``  - conformal; cone through the lower parallel at the optimal
  half-apex angle (or an explicit override), s from the conformal chart.
* ``central``  - radial projection from the sphere centre onto the cone
  through both parallels.
* ``orthogonal`` - perpendicular projection onto the same cone.
* ``delisle``  - meridians scaled by one common constant, both boundary
  circles fixed (straight-line profile through both).
* ``delisle-equidistant`` - meridians mapped isometrically (unit meridian
  stretch), anchored so the lower boundary circle is fixed.
* ``teichmuller`` - extremal quasiconformal map between the spherical and
  conical annuli: a radial power stretch with exponent equal to the ratio of
  the two moduli, both boundary circles fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cone import Cone, ConicalAnnulus, cone_annulus_modulus, cone_through_parallels
from .conformal import lambert_chart
from .distortion import (
    DistortionReport,
    StretchSample,
    optimal_alpha_by_root,
    profile_distortion,
)
from .errors import InvalidKind, OnCutMeridian, OutOfAnnulus
from .sphere import TAU, PlanarPoint, SphericalAnnulus, SphericalPoint, annulus_modulus

KIND_LAMBERT = "lambert"
KIND_CENTRAL = "central"
KIND_ORTHOGONAL = "orthogonal"
KIND_DELISLE = "delisle"
KIND_DELISLE_EQUIDISTANT = "delisle-equidistant"
KIND_TEICHMULLER = "teichmuller"

# Fixed presentation order of the comparison table.
COMPARISON_ORDER = (
    KIND_CENTRAL,
    KIND_DELISLE,
    KIND_DELISLE_EQUIDISTANT,
    KIND_ORTHOGONAL,
    KIND_TEICHMULLER,
    KIND_LAMBERT,
)

DEFAULT_CUT_LONGITUDE = math.pi


@dataclass(frozen=True)
class ProjectionParams:
    """Annulus heights plus an optional explicit half-apex angle.

    The override only applies to the Lambert kind; for the other five the
    cone is forced by the requirement that it pass through both parallels.
    """

    rho1: float
    rho2: float
    alpha_override: float | None = None

    def __post_init__(self):
        if not -1.0 < self.rho1 < self.rho2 < 1.0:
            raise ValueError(
                f"need -1 < rho1 < rho2 < 1, got ({self.rho1}, {self.rho2})"
            )


@dataclass(frozen=True)
class MeridianProfile:
    """A projection encoded as slant distance against colatitude.

    ``eps_hi < eps_lo``: the upper parallel (height rho2) has the smaller
    colatitude.  ``s`` and ``s_prime`` accept scalars or numpy arrays.
    ``aux`` carries per-kind derived constants (scale factor, dilatation,
    optimal angle) for reporting.
    """

    kind: str
    cone: Cone
    eps_lo: float
    eps_hi: float
    s: Callable[[np.ndarray], np.ndarray]
    s_prime: Callable[[np.ndarray], np.ndarray]
    aux: dict = field(default_factory=dict)

    @property
    def rho1(self) -> float:
        return math.cos(self.eps_lo)

    @property
    def rho2(self) -> float:
        return math.cos(self.eps_hi)

    @property
    def sin_alpha(self) -> float:
        return self.cone.sin_alpha

    def stretches(self, eps) -> tuple[np.ndarray, np.ndarray]:
        """Principal stretches (h_meridian, h_parallel) at colatitudes ``eps``.

        One call of ``s`` and one of ``s_prime`` over the whole array.
        """
        eps = np.asarray(eps, dtype=float)
        return self.s_prime(eps), self.s(eps) * self.sin_alpha / np.sin(eps)


def make_profile(kind: str, params: ProjectionParams) -> MeridianProfile:
    """Construct the meridian profile for one projection kind."""
    rho1, rho2 = params.rho1, params.rho2
    eps1 = math.acos(rho1)
    eps2 = math.acos(rho2)

    if kind == KIND_LAMBERT:
        alpha0 = (
            params.alpha_override
            if params.alpha_override is not None
            else optimal_alpha_by_root(rho1, rho2)
        )
        chart = lambert_chart(alpha0, rho1)
        a0 = math.sin(alpha0)
        s_anchor = math.sqrt(1.0 - rho1 * rho1) / a0
        t1 = math.tan(0.5 * eps1)

        def s(e, _c=s_anchor, _t1=t1, _a=a0):
            return _c * (np.tan(0.5 * np.asarray(e, dtype=float)) / _t1) ** _a

        def s_prime(e, _a=a0):
            e = np.asarray(e, dtype=float)
            return s(e) * _a / np.sin(e)

        return MeridianProfile(
            kind, chart.cone, eps1, eps2, s, s_prime, {"sin_alpha0": a0}
        )

    if params.alpha_override is not None:
        raise ValueError(
            f"kind {kind!r} has its cone fixed by the two parallels; "
            "alpha_override is only meaningful for the Lambert kind"
        )

    cone = cone_through_parallels(rho1, rho2)
    alpha, sa, ca = cone.alpha, cone.sin_alpha, cone.cos_alpha
    apex = cone.apex_z
    s1 = math.sqrt(1.0 - rho1 * rho1) / sa
    s2 = math.sqrt(1.0 - rho2 * rho2) / sa

    if kind == KIND_CENTRAL:

        def s(e):
            e = np.asarray(e, dtype=float)
            return apex * np.sin(e) / np.sin(e + alpha)

        def s_prime(e):
            e = np.asarray(e, dtype=float)
            return apex * sa / np.sin(e + alpha) ** 2

        return MeridianProfile(kind, cone, eps1, eps2, s, s_prime)

    if kind == KIND_ORTHOGONAL:

        def s(e):
            e = np.asarray(e, dtype=float)
            return np.sin(e) * sa + ca * (apex - np.cos(e))

        def s_prime(e):
            e = np.asarray(e, dtype=float)
            return np.sin(e + alpha)

        return MeridianProfile(kind, cone, eps1, eps2, s, s_prime)

    if kind == KIND_DELISLE:
        scale = (s1 - s2) / (eps1 - eps2)

        def s(e):
            e = np.asarray(e, dtype=float)
            return s2 + scale * (e - eps2)

        def s_prime(e):
            e = np.asarray(e, dtype=float)
            return np.full_like(e, scale)

        return MeridianProfile(kind, cone, eps1, eps2, s, s_prime, {"scale": scale})

    if kind == KIND_DELISLE_EQUIDISTANT:
        # Meridians are isometric; the lower boundary circle is the anchor.
        def s(e):
            e = np.asarray(e, dtype=float)
            return s1 - (eps1 - e)

        def s_prime(e):
            e = np.asarray(e, dtype=float)
            return np.ones_like(e)

        return MeridianProfile(kind, cone, eps1, eps2, s, s_prime)

    if kind == KIND_TEICHMULLER:
        mod_sphere = annulus_modulus(SphericalAnnulus(rho1, rho2))
        mod_cone = cone_annulus_modulus(ConicalAnnulus(cone, s2, s1))
        dil = mod_cone / mod_sphere
        exponent = dil * sa
        t1 = math.tan(0.5 * eps1)

        def s(e, _t1=t1, _m=exponent):
            return s1 * (np.tan(0.5 * np.asarray(e, dtype=float)) / _t1) ** _m

        def s_prime(e, _m=exponent):
            e = np.asarray(e, dtype=float)
            return s(e) * _m / np.sin(e)

        return MeridianProfile(
            kind, cone, eps1, eps2, s, s_prime, {"dilatation": dil}
        )

    raise InvalidKind(f"unknown projection kind {kind!r}")


def _check_in_annulus(profile: MeridianProfile, rho: float) -> None:
    if rho < profile.rho1 - 1e-9 or rho > profile.rho2 + 1e-9:
        raise OutOfAnnulus(
            f"height {rho} outside [{profile.rho1}, {profile.rho2}]"
        )


def project_point(
    profile: MeridianProfile,
    p: SphericalPoint,
    cut_longitude: float = DEFAULT_CUT_LONGITUDE,
) -> PlanarPoint:
    """Place a sphere point on the developed map plane.

    The cone is cut open along ``cut_longitude``; the meridian opposite the
    cut is the central one and points straight down from the apex (which sits
    at the planar origin).  A point at signed longitude offset ``d`` from the
    central meridian lands at development angle ``psi = d * sin(alpha)``, at
    planar position (s sin(psi), -s cos(psi)).  Points on the cut itself are
    rejected; everything else maps continuously.
    """
    _check_in_annulus(profile, p.rho)
    gap = (p.theta - cut_longitude) % TAU
    if min(gap, TAU - gap) < 1e-12:
        raise OnCutMeridian(f"longitude {p.theta} lies on the cut meridian")
    offset = math.remainder(p.theta - cut_longitude - math.pi, TAU)
    psi = offset * profile.sin_alpha
    slant = float(profile.s(math.acos(p.rho)))
    return PlanarPoint(slant * math.sin(psi), -slant * math.cos(psi), "map")


def stretch_at(profile: MeridianProfile, rho: float) -> StretchSample:
    """Principal stretches and bi-Lipschitz constant at one height."""
    _check_in_annulus(profile, rho)
    rho = min(max(rho, profile.rho1), profile.rho2)
    h_m, h_p = (float(h) for h in profile.stretches(math.acos(rho)))
    sigma = max(h_m, h_p, 1.0 / h_m, 1.0 / h_p)
    return StretchSample(rho, h_m, h_p, sigma)


def compare_all(
    params: ProjectionParams, n_grid: int = 4097
) -> list[tuple[str, DistortionReport]]:
    """Distortion report for all six kinds, in the fixed comparison order."""
    return [
        (kind, profile_distortion(make_profile(kind, params), n_grid))
        for kind in COMPARISON_ORDER
    ]
