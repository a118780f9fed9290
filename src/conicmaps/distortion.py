"""Distortion of rotationally symmetric projections and apex-angle optimization.

The central object is the squared-stretch function

    F(x, y, z) = (1+z)^(1+y) (1-z)^(1-y) / ((1+x)^(1+y) (1-x)^(1-y)),

which gives the squared infinitesimal stretch of the normalized conformal
sphere-to-cone map at height x when the angular exponent is y = sin(alpha)
and the map is normalized at height z.  Everything here is evaluated in
log-space: the distortion of an annulus is half the spread of log F over it,
the optimal angle is the root of log F(rho2, a, rho1) = 0 in a = sin(alpha),
and the numeric engine below bounds the same quantities for non-conformal
profiles from both principal stretches where they can be extreme.

Useful facts, all exercised by the test suite: F(x, y, x) = 1;
F(z, y, x) = 1/F(x, y, z); F is strictly convex in x with its minimum at
x = y and diverges as x -> +-1; for x > z it is strictly decreasing in y;
F(x, x, z) increases on (-1, z) and decreases on (z, 1).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

import numpy as np

from .conformal import _log_f, lipschitz_constant
from .errors import NonPositiveStretch
from .sphere import _band_logs, _check_band, _check_open_unit, _Record

if TYPE_CHECKING:  # pragma: no cover
    from .projections import MeridianProfile

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _require_positive(h_m, h_p) -> None:
    """A kind whose stretch (float or array) is not positive somewhere on the
    band is no map of it."""
    if np.any(h_m <= 0.0) or np.any(h_p <= 0.0):
        raise NonPositiveStretch("stretches must be positive")


class StretchSample(_Record):
    """Principal stretches of a profile at one height.

    ``sigma`` is the infinitesimal bi-Lipschitz constant
    max(h_m, h_p, 1/h_m, 1/h_p); it is 1 exactly where the map is a local
    isometry.
    """

    rho: float
    h_meridian: float
    h_parallel: float
    sigma: float

    def __post_init__(self):
        _require_positive(self.h_meridian, self.h_parallel)
        if self.sigma < 1.0 - 1e-12:
            raise ValueError("bi-Lipschitz constant cannot be below 1")


class DistortionReport(_Record):
    """Extremes of the log-stretch over an annulus, both directions included.

    ``delta = sup_log - inf_log`` is the distortion; ``arg_sup``/``arg_inf``
    are the heights where the extremes are attained.
    """

    sup_log: float
    inf_log: float
    delta: float
    arg_sup: float
    arg_inf: float

    def __post_init__(self):
        if self.delta < 0.0:
            raise ValueError("distortion cannot be negative")


def log_squared_stretch(x: float, y: float, z: float) -> float:
    """log F(x, y, z); exact cancellation at x == z."""
    _check_open_unit("x", x)
    _check_open_unit("y", y)
    _check_open_unit("z", z)
    return _log_f(x, y, z)


def squared_stretch(x: float, y: float, z: float) -> float:
    """F(x, y, z) itself, via the log form."""
    return math.exp(log_squared_stretch(x, y, z))


def _distortion_in_a(rho1: float, rho2: float, rho0: float) -> Callable[[float], float]:
    """Distortion as a function of a = sin(alpha), valid on all of [-1, 1].

    F is convex in its first argument with minimum at x = a, so the supremum
    of F over [rho1, rho2] sits at an endpoint and the infimum at a when that
    is interior, else at the nearer endpoint; the distortion is half the
    spread of log F because L = sqrt(F).  The returned function evaluates
    log F exactly as :func:`log_squared_stretch` does, with the log1p terms
    that do not depend on a taken once, for the scan's 60-odd calls.  Callers
    check a; a = 1, sin(alpha) rounded within about 1e-8 of pi/2, takes the
    infimum at rho2 and needs no log1p(-a).
    """
    lp0, lm0 = math.log1p(rho0), math.log1p(-rho0)
    p1, m1 = lp0 - math.log1p(rho1), lm0 - math.log1p(-rho1)
    p2, m2 = lp0 - math.log1p(rho2), lm0 - math.log1p(-rho2)

    def delta(a: float) -> float:
        f1 = (1.0 + a) * p1 + (1.0 - a) * m1
        f2 = (1.0 + a) * p2 + (1.0 - a) * m2
        if rho1 <= a <= rho2:
            inf = (1.0 + a) * (lp0 - math.log1p(a)) + (1.0 - a) * (lm0 - math.log1p(-a))
        elif a < rho1:
            inf = f1
        else:
            inf = f2
        return 0.5 * (max(f1, f2) - inf)

    return delta


def annulus_distortion(rho1: float, rho2: float, alpha, rho0: float) -> float | np.ndarray:
    """Distortion log(sup L / inf L) of the conformal map over (rho1, rho2).

    The normalization height ``rho0`` cancels between sup and inf, so the
    result does not depend on it.  Checks the band, every angle, then rho0.
    A float ``alpha`` gives the scan solver's closure at sin(alpha); an array
    gives :func:`_distortions_at` at each flattened angle, bit for bit the same.
    """
    _check_band(rho1, rho2)
    alphas = np.asarray(alpha, dtype=float)
    for x in alphas.ravel().tolist():
        if not 0.0 < x < math.pi / 2.0:
            raise ValueError(f"alpha must lie in (0, pi/2), got {x}")
    _check_open_unit("rho0", rho0)
    if alphas.ndim == 0:
        return _distortion_in_a(rho1, rho2, rho0)(math.sin(alphas.item()))
    return _distortions_at(rho1, rho2, np.sin(alphas.ravel()), rho0)


def _distortions_at(rho1: float, rho2: float, a: np.ndarray, rho0: float) -> np.ndarray:
    """The closure of :func:`_distortion_in_a` as array arithmetic in its own
    operation order, at each a of a 1-D array; callers check the arguments.
    f1 and f2 are :func:`conformal._log_f` at the array a.  log1p(+-a) inside
    [rho1, rho2] stays in ``math``: ``np.log1p`` rounds otherwise."""
    f1, f2 = _log_f(rho1, a, rho0), _log_f(rho2, a, rho0)
    inf = np.where(a < rho1, f1, f2)
    inside = (rho1 <= a) & (a <= rho2)
    ai = a[inside]
    log_p = np.fromiter(map(math.log1p, ai.tolist()), float, ai.size)
    log_m = np.fromiter(map(math.log1p, (-ai).tolist()), float, ai.size)
    inf[inside] = ((1.0 + ai) * (math.log1p(rho0) - log_p)
                   + (1.0 - ai) * (math.log1p(-rho0) - log_m))
    return 0.5 * (np.maximum(f1, f2) - inf)


def optimal_alpha_by_root(rho1: float, rho2: float) -> float:
    """Half-apex angle minimizing the distortion over the annulus.

    The minimum is attained exactly where the two boundary parallels have
    equal stretch, at the root a0 of log F(rho2, a, rho1) = (1 + a) p + (1 - a) m,
    with p = log((1 + rho1) / (1 + rho2)) and m = log((1 - rho1) / (1 - rho2)).
    That is linear in a, so a0 = (m + p) / (m - p), Lambert's cone constant in
    closed form (Snyder, Map Projections - A Working Manual, eq. 15-3).  Both
    sums are the band's log1p terms, which do not cancel on a narrow band:
    m + p = log(r1^2/r2^2) and m - p = t, 4 pi times the annulus modulus
    (``sphere._band_logs``).  The root satisfies rho1 < a0 < rho2.
    """
    _check_band(rho1, rho2)
    log_r, t = _band_logs(rho1, rho2)
    return math.asin(log_r / t)


def _downward_alpha(rho1: float, rho2: float, alpha: float) -> float:
    """``alpha`` of :func:`optimal_alpha_by_root`, which callers call where the
    benchmark tracer times it, or a ValueError if its cone opens upward, or
    if sin(alpha) rounds to rho1 or below, as on (0.9999999999999998,
    0.9999999999999999), so that its cone cannot touch the parallel rho1
    (the exact test of :func:`cone.cone_touching_parallel`)."""
    if alpha <= 0.0:
        raise ValueError(f"rho1 + rho2 = {rho1 + rho2:.6g} gives the optimal a0 = "
                         f"{math.sin(alpha):.6g} <= 0, an upward cone; the domain needs "
                         "rho1 + rho2 > 0")
    if math.sin(alpha) <= rho1:
        raise ValueError(f"rho1 = {rho1!r} and rho2 = {rho2!r} give the optimal a0 = "
                         f"{math.sin(alpha)!r} <= rho1 in floating point, a cone that "
                         "cannot touch the parallel rho1; not supported")
    return alpha


def _golden_section(
    f: Callable[[float], float], lo: float, hi: float, tol: float, maximize: bool
) -> tuple[float, float]:
    """Locate an extremum of a unimodal f on [lo, hi] to interval width tol.

    Returns (argument, value).  Linear convergence is plenty here: every use
    in this package has an analytic, cheaply evaluated integrand.
    """
    sign = -1.0 if maximize else 1.0
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = sign * f(c)
    fd = sign * f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = sign * f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def optimal_alpha_by_scan(rho1: float, rho2: float) -> float:
    """Optimal half-apex angle by direct minimization of the distortion.

    Golden-section search over a = sin(alpha) on (-1, 1); the distortion is
    strictly decreasing left of the optimum and strictly increasing right of
    it, so the search is safe.  It agrees with :func:`optimal_alpha_by_root`,
    a genuinely independent code path, to well below 1e-9 only where the
    minimum's depth is above the distortion's ~1e-17 rounding noise: 1.85e-4
    rad off on (0.3, 0.3000000000001), 6.85e-9 on (0.1, 0.1000000001)
    (ROADMAP item 3).
    """
    _check_band(rho1, rho2)

    delta = _distortion_in_a(rho1, rho2, rho1)
    a_best, _ = _golden_section(delta, -1.0 + 1e-9, 1.0 - 1e-9, 1e-12, maximize=False)
    return math.asin(a_best)


def bilipschitz_curve(rho1: float, rho2: float, n: int) -> list[StretchSample]:
    """Sample the bi-Lipschitz constant of the optimally tilted conformal map.

    Heights are clustered toward the endpoints (Chebyshev nodes) where the
    curve is steepest.  At both endpoints sigma = 1; the single interior
    maximum sits at height sin(alpha0).
    """
    if n < 2:
        raise ValueError("need at least two samples")
    _check_band(rho1, rho2)
    alpha0 = optimal_alpha_by_root(rho1, rho2)
    mid = 0.5 * (rho1 + rho2)
    half = 0.5 * (rho2 - rho1)
    samples = []
    for j in range(n):
        rho = mid - half * math.cos(math.pi * j / (n - 1))
        rho = min(max(rho, rho1), rho2)
        stretch = lipschitz_constant(rho, alpha0, rho1)
        samples.append(
            StretchSample(rho, stretch, stretch, max(stretch, 1.0 / stretch))
        )
    return samples


def profile_distortion(profile: "MeridianProfile", n_grid: int = 4097) -> DistortionReport:
    """Numeric distortion of an arbitrary rotationally symmetric profile.

    The principal stretches are h_m = s'(eps) along the meridian and
    h_p = s(eps) sin(alpha) / sin(eps) along the parallel.  Inside the band
    a stretch can only have an extremum at the profile's critical
    colatitudes, so when those are known both stretches are evaluated, with
    one call, at the two boundary colatitudes and the critical ones in the
    band only, and the report takes the overall extremes of these values.

    Only a profile whose critical colatitudes are unknown (``critical`` None)
    is scanned on a grid of ``n_grid`` endpoint-clustered colatitudes, from
    boundary to boundary; each direction's interior grid extremum is then
    refined by golden-section search to a window of 1e-12 in colatitude.
    The tests check the exact extremes against this path.  Value ties
    resolve toward the smaller height.
    """
    if n_grid < 64:
        raise ValueError("n_grid must be at least 64")
    exact = profile.critical is not None
    if exact:
        eps, h_m, h_p = profile.candidate_stretches()
    else:
        mid = 0.5 * (profile.eps_hi + profile.eps_lo)
        half = 0.5 * (profile.eps_lo - profile.eps_hi)
        eps = mid - half * np.cos(np.pi * np.arange(n_grid) / (n_grid - 1))
        eps[0], eps[-1] = profile.eps_hi, profile.eps_lo
        h_m, h_p = profile.stretches(eps)
    _require_positive(h_m, h_p)
    logs = (np.log(h_m), np.log(h_p))

    # (value, rho) candidates of each extreme: every exact value, or the
    # grid's two boundary values and its refined interior extremes.
    nodes = range(len(eps)) if exact else (0, -1)
    sups = [(float(values[i]), math.cos(eps[i])) for values in logs for i in nodes]
    infs = list(sups)
    if not exact:
        for j, values in enumerate(logs):

            def log_h(e: float, j: int = j) -> float:
                return math.log(float(profile.stretches(e)[j]))

            for maximize, found in ((True, sups), (False, infs)):
                idx = int(np.argmax(values) if maximize else np.argmin(values))
                if 0 < idx < n_grid - 1:
                    lo, hi = float(eps[idx - 1]), float(eps[idx + 1])
                    e_star, v_star = _golden_section(log_h, lo, hi, 1e-12, maximize)
                    found.append((v_star, math.cos(e_star)))

    # Value ties resolve toward the smaller height.
    sup_log, arg_sup = min(sups, key=lambda c: (-c[0], c[1]))
    inf_log, arg_inf = min(infs)
    return DistortionReport(sup_log, inf_log, sup_log - inf_log, arg_sup, arg_inf)
