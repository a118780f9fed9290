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

from .cone import Cone, cone_through_parallels
from .conformal import lambert_chart
from .distortion import (
    DistortionReport,
    StretchSample,
    _downward_alpha,
    optimal_alpha_by_root,
    profile_distortion,
)
from .errors import InvalidKind, NonPositiveStretch, OnCutMeridian, OutOfAnnulus
from .sphere import TAU, PlanarPoint, SphericalPoint
from .sphere import _band_logs, _check_band, _parallel_radius, _Record

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


class ProjectionParams(_Record):
    """Annulus heights plus an optional explicit half-apex angle.

    The override only applies to the Lambert kind; for the other five the
    cone is forced by the requirement that it pass through both parallels.
    """

    rho1: float
    rho2: float
    alpha_override: float | None = None

    def __post_init__(self):
        _check_band(self.rho1, self.rho2)


@dataclass(frozen=True)  # not a _Record: callers copy it with dataclasses.replace
class MeridianProfile:
    """A projection encoded as slant distance against colatitude.

    ``rho1 < rho2`` are the band's heights and ``eps_lo``, ``eps_hi`` their
    colatitudes, ``eps_hi < eps_lo``: the upper parallel has the smaller
    colatitude.  A profile built from colatitudes alone takes cos of them as
    its band.  ``s`` and ``s_prime`` take a float or a float array.
    ``aux`` carries per-kind derived constants (scale factor, dilatation and
    both moduli, optimal angle) for reporting.  ``critical`` holds every
    colatitude, in or out of the band, where either principal stretch can
    have an interior extremum; ``()`` means neither has one, ``None`` that
    they are unknown.
    """

    kind: str
    cone: Cone
    eps_lo: float
    eps_hi: float
    s: Callable[[np.ndarray], np.ndarray]
    s_prime: Callable[[np.ndarray], np.ndarray]
    aux: dict = field(default_factory=dict)
    critical: tuple[float, ...] | None = None
    rho1: float | None = None
    rho2: float | None = None

    def __post_init__(self):
        if self.rho1 is None:
            object.__setattr__(self, "rho1", math.cos(self.eps_lo))
        if self.rho2 is None:
            object.__setattr__(self, "rho2", math.cos(self.eps_hi))

    @property
    def sin_alpha(self) -> float:
        return self.cone.sin_alpha

    def stretches(self, eps) -> tuple[np.ndarray, np.ndarray]:
        """Principal stretches (h_meridian, h_parallel) at colatitudes ``eps``.

        One call of ``s`` and one of ``s_prime`` over the whole array.
        """
        eps = np.asarray(eps, dtype=float)
        return self.s_prime(eps), self.s(eps) * self.sin_alpha / np.sin(eps)

    def candidate_stretches(self) -> tuple[list[float], np.ndarray, np.ndarray]:
        """Colatitudes [eps_hi, eps_lo, *in-band critical] and both stretches
        there, from one ``stretches`` call.

        A stretch is extreme on the band only at these colatitudes, so its
        extremes and its sign there are its extremes and sign on the band.
        Needs known critical colatitudes (``critical`` not None).
        """
        inner = [e for e in self.critical if self.eps_hi < e < self.eps_lo]
        eps = [self.eps_hi, self.eps_lo, *inner]
        return (eps, *self.stretches(eps))


def _power_profile(kind, cone, eps1, eps2, s1, m, aux, band) -> MeridianProfile:
    """Radial power map s = s1 * (tan(eps/2) / tan(eps1/2))**m.

    Both stretches are s * (m or sin alpha) / sin(eps), whose logarithmic
    derivative (m - cos(eps)) / sin(eps) vanishes only at cos(eps) = m.
    """
    t1 = math.tan(0.5 * eps1)

    def s(e):
        return s1 * (np.tan(0.5 * e) / t1) ** m

    def s_prime(e):
        return s(e) * m / np.sin(e)

    critical = (math.acos(m),) if abs(m) < 1.0 else ()
    return MeridianProfile(kind, cone, eps1, eps2, s, s_prime, aux, critical, *band)


def _affine_parallel_critical(s_a, eps_a, k, eps_hi, eps_lo) -> tuple[float, ...]:
    """Colatitudes in (eps_hi, eps_lo) where s / sin(eps) is stationary.

    With s = s_a + k * (eps - eps_a) that is the root of
    g(eps) = k sin(eps) - s(eps) cos(eps), and g' = s sin(eps) > 0 wherever
    s > 0, so there is at most one, and only if g(eps_hi) < 0 < g(eps_lo).
    Newton steps that leave the shrinking bracket fall back to bisection.
    """

    def g(e):
        return k * math.sin(e) - (s_a + k * (e - eps_a)) * math.cos(e)

    lo, hi = eps_hi, eps_lo
    if not g(lo) < 0.0 < g(hi):
        return ()
    e = 0.5 * (lo + hi)
    for _ in range(100):
        ge = g(e)
        if ge == 0.0:
            break
        if ge < 0.0:
            lo = e
        else:
            hi = e
        slope = (s_a + k * (e - eps_a)) * math.sin(e)
        nxt = e - ge / slope if slope > 0.0 else lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if nxt == e:
            break
        e = nxt
    return (e,)


def _affine_profile(kind, cone, eps1, eps2, s_a, eps_a, k, aux, band) -> MeridianProfile:
    """Profile affine in colatitude: s = s_a + k * (eps - eps_a).

    The meridian stretch is the constant k, so only the parallel stretch
    can have an interior extremum.
    """

    def s(e):
        return s_a + k * (e - eps_a)

    def s_prime(e):
        return np.full_like(e, k, dtype=float)

    critical = _affine_parallel_critical(s_a, eps_a, k, eps2, eps1)
    return MeridianProfile(kind, cone, eps1, eps2, s, s_prime, aux, critical, *band)


def make_profile(kind: str, params: ProjectionParams) -> MeridianProfile:
    """Construct the meridian profile for one projection kind."""
    band = rho1, rho2 = params.rho1, params.rho2
    eps1 = math.acos(rho1)
    eps2 = math.acos(rho2)

    if kind == KIND_LAMBERT:
        alpha0 = params.alpha_override
        if alpha0 is None:
            alpha0 = _downward_alpha(rho1, rho2, optimal_alpha_by_root(rho1, rho2))
        cone = lambert_chart(alpha0, rho1).cone
        a0 = math.sin(alpha0)
        s1 = _parallel_radius(rho1) / a0
        return _power_profile(kind, cone, eps1, eps2, s1, a0, {"sin_alpha0": a0}, band)

    if params.alpha_override is not None:
        raise ValueError(
            f"kind {kind!r} has its cone fixed by the two parallels; "
            "alpha_override is only meaningful for the Lambert kind"
        )

    cone = cone_through_parallels(rho1, rho2)
    alpha, sa, ca = cone.alpha, cone.sin_alpha, cone.cos_alpha
    apex = cone.apex_z
    r1 = _parallel_radius(rho1)
    r2 = _parallel_radius(rho2)
    s1 = r1 / sa
    s2 = r2 / sa
    # Both stretches of the central map, and the meridian stretch
    # sin(eps + alpha) of the orthogonal one, are extremal where
    # eps + alpha = pi/2.
    foot = 0.5 * math.pi - alpha

    if kind == KIND_CENTRAL:

        def s(e):
            return apex * np.sin(e) / np.sin(e + alpha)

        def s_prime(e):
            return apex * sa / np.sin(e + alpha) ** 2

        return MeridianProfile(kind, cone, eps1, eps2, s, s_prime, {}, (foot,), *band)

    if kind == KIND_ORTHOGONAL:
        # apex - cos eps, as (apex - 1) + 2 sin^2(eps/2): near the pole the
        # apex is near 1 and cos eps a staircase of doubles, so the plain
        # difference cancels.  apex - 1 = r1 / tan(alpha) - (1 - rho1) is
        # taken in a closed form in which nothing cancels.
        rise = 2.0 * math.sqrt((1.0 - rho1) * (1.0 - rho2)) / (
            (math.sqrt((1.0 + rho2) * (1.0 - rho1)) + math.sqrt((1.0 + rho1) * (1.0 - rho2)))
            * ((rho1 + rho2) / (r1 + r2))
        )

        def s(e):
            return np.sin(e) * sa + ca * (rise + 2.0 * np.sin(0.5 * e) ** 2)

        def s_prime(e):
            return np.sin(e + alpha)

        # The parallel stretch sa^2 + sa ca (apex - cos eps) / sin eps has
        # derivative sa ca (1 - apex cos eps) / sin^2 eps.  Its zero
        # acos(1/apex) is taken as atan(sqrt(apex^2 - 1)), which stays well
        # conditioned for an apex near 1.
        critical = (foot, math.atan(math.sqrt(rise * (apex + 1.0)))) if apex > 1.0 else (foot,)
        return MeridianProfile(kind, cone, eps1, eps2, s, s_prime, {}, critical, *band)

    if kind == KIND_DELISLE:
        # s1 - s2 is the meridian chord between the parallels and eps1 - eps2
        # the arc over it; both are formed without subtracting near-equal
        # numbers, since r1 - r2 = w (rho1 + rho2) / (r1 + r2).
        w = rho2 - rho1
        chord = math.hypot(w * (rho1 + rho2) / (r1 + r2), w)
        scale = chord / (2.0 * math.asin(0.5 * chord))
        return _affine_profile(kind, cone, eps1, eps2, s2, eps2, scale, {"scale": scale}, band)

    if kind == KIND_DELISLE_EQUIDISTANT:
        # Meridians are isometric; the lower boundary circle is the anchor.
        return _affine_profile(kind, cone, eps1, eps2, s1, eps1, 1.0, {}, band)

    if kind == KIND_TEICHMULLER:
        # log(s1/s2) = log(r1^2/r2^2) / 2; the sphere's modulus is t / (4 pi).
        log_r, t = _band_logs(rho1, rho2)
        mod_cone = 0.5 * log_r / (TAU * sa)
        mod_sphere = t / (4.0 * math.pi)
        dil = mod_cone / mod_sphere
        aux = {"dilatation": dil, "mod_sphere": mod_sphere, "mod_cone": mod_cone}
        return _power_profile(kind, cone, eps1, eps2, s1, dil * sa, aux, band)

    raise InvalidKind(f"unknown projection kind {kind!r}")


def _check_in_annulus(profile: MeridianProfile, rho: float) -> None:
    """Written so that a NaN height fails."""
    if not (profile.rho1 - 1e-9 <= rho <= profile.rho2 + 1e-9):
        raise OutOfAnnulus(
            f"height {rho} outside [{profile.rho1}, {profile.rho2}]"
        )


def _check_cut(cut: float) -> None:
    """The one message of :func:`project_point` and
    :func:`geodata.project_polylines` for a cut they cannot map."""
    if not math.isfinite(cut):
        raise ValueError(f"cut longitude must be finite, got {cut}")


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
    rejected; everything else maps continuously.  A non-finite cut raises
    ``ValueError``.
    """
    _check_cut(cut_longitude)
    _check_in_annulus(profile, p.rho)
    gap = (p.theta - cut_longitude) % TAU
    if min(gap, TAU - gap) < 1e-12:
        raise OnCutMeridian(f"longitude {p.theta} lies on the cut meridian")
    offset = math.remainder(p.theta - cut_longitude - math.pi, TAU)
    psi = offset * profile.sin_alpha
    slant = float(profile.s(math.acos(p.rho)))
    return PlanarPoint(slant * math.sin(psi), -slant * math.cos(psi))


def stretch_at(profile: MeridianProfile, rho: float) -> StretchSample:
    """Principal stretches and bi-Lipschitz constant at one height."""
    _check_in_annulus(profile, rho)
    rho = min(max(rho, profile.rho1), profile.rho2)
    h_m, h_p = (float(h) for h in profile.stretches(math.acos(rho)))
    sigma = max(h_m, h_p, 1.0 / h_m, 1.0 / h_p)
    return StretchSample(rho, h_m, h_p, sigma)


def _band_profiles(params: ProjectionParams) -> dict[str, MeridianProfile]:
    """The six kinds' profiles of the band, keyed in the comparison order.
    The Lambert one is built first, so a band it rejects gives its error."""
    lambert = make_profile(KIND_LAMBERT, params)
    return {k: lambert if k == KIND_LAMBERT else make_profile(k, params) for k in COMPARISON_ORDER}


def _report(profile: MeridianProfile) -> DistortionReport | None:
    """``profile_distortion`` of the profile, or None where it raises
    NonPositiveStretch: a kind whose stretch is not positive somewhere on the
    band is no map of it, as delisle-equidistant on (-0.6, 0.998)."""
    try:
        return profile_distortion(profile)
    except NonPositiveStretch:
        return None


def compare_all(params: ProjectionParams) -> list[tuple[str, DistortionReport | None]]:
    """(kind, distortion report or None) of all six kinds, in the fixed
    comparison order, from :func:`_band_profiles` and :func:`_report`."""
    return [(kind, _report(profile)) for kind, profile in _band_profiles(params).items()]
