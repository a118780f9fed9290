"""Distortion of rotationally symmetric projections and apex-angle optimization.

The central object is the squared-stretch function

    F(x, y, z) = (1+z)^(1+y) (1-z)^(1-y) / ((1+x)^(1+y) (1-x)^(1-y)),

which gives the squared infinitesimal stretch of the normalized conformal
sphere-to-cone map at height x when the angular exponent is y = sin(alpha)
and the map is normalized at height z.  Everything here is evaluated in
log-space: the distortion of an annulus is half the spread of log F over it,
the optimal angle is the root of log F(rho2, a, rho1) = 0 in a = sin(alpha),
and the numeric engine below bounds the same quantities for non-conformal
profiles by sampling both principal stretches.

Useful facts, all exercised by the test suite: F(x, y, x) = 1;
F(z, y, x) = 1/F(x, y, z); F is strictly convex in x with its minimum at
x = y and diverges as x -> +-1; for x > z it is strictly decreasing in y;
F(x, x, z) increases on (-1, z) and decreases on (z, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .conformal import lipschitz_constant
from .errors import NonPositiveStretch

if TYPE_CHECKING:  # pragma: no cover
    from .projections import MeridianProfile

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class StretchSample:
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
        if self.h_meridian <= 0.0 or self.h_parallel <= 0.0:
            raise ValueError("stretches must be positive")
        if self.sigma < 1.0 - 1e-12:
            raise ValueError("bi-Lipschitz constant cannot be below 1")


@dataclass(frozen=True)
class DistortionReport:
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


def _check_open_unit(name: str, v: float) -> None:
    if not -1.0 < v < 1.0:
        raise ValueError(f"{name} must lie in (-1, 1), got {v}")


def log_squared_stretch(x: float, y: float, z: float) -> float:
    """log F(x, y, z); exact cancellation at x == z."""
    _check_open_unit("x", x)
    _check_open_unit("y", y)
    _check_open_unit("z", z)
    return (1.0 + y) * (math.log1p(z) - math.log1p(x)) + (1.0 - y) * (
        math.log1p(-z) - math.log1p(-x)
    )


def squared_stretch(x: float, y: float, z: float) -> float:
    """F(x, y, z) itself, via the log form."""
    return math.exp(log_squared_stretch(x, y, z))


def _distortion_in_a(rho1: float, rho2: float, rho0: float) -> Callable[[float], float]:
    """Distortion as a function of a = sin(alpha), valid on all of (-1, 1).

    F is convex in its first argument with minimum at x = a, so the supremum
    of F over [rho1, rho2] sits at an endpoint and the infimum at a when that
    is interior, else at the nearer endpoint; the distortion is half the
    spread of log F because L = sqrt(F).  The returned function evaluates
    log F exactly as :func:`log_squared_stretch` does, with the log1p terms
    that do not depend on a taken once here.
    """
    _check_open_unit("x", rho1)
    _check_open_unit("x", rho2)
    _check_open_unit("z", rho0)
    lp0, lm0 = math.log1p(rho0), math.log1p(-rho0)
    p1, m1 = lp0 - math.log1p(rho1), lm0 - math.log1p(-rho1)
    p2, m2 = lp0 - math.log1p(rho2), lm0 - math.log1p(-rho2)

    def delta(a: float) -> float:
        if not -1.0 < a < 1.0:
            raise ValueError(f"y must lie in (-1, 1), got {a}")
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


def annulus_distortion(rho1: float, rho2: float, alpha: float, rho0: float) -> float:
    """Distortion log(sup L / inf L) of the conformal map over (rho1, rho2).

    The normalization height ``rho0`` cancels between sup and inf, so the
    result does not depend on it.
    """
    return float(annulus_distortions(rho1, rho2, [alpha], rho0)[0])


def annulus_distortions(rho1: float, rho2: float, alphas, rho0: float) -> np.ndarray:
    """:func:`annulus_distortion` at each half-apex angle of a 1-D ``alphas``.

    The arguments are checked once.  The per-angle sin and log1p stay in
    ``math``, so every value equals the scalar function's bit for bit.
    """
    if not -1.0 < rho1 < rho2 < 1.0:
        raise ValueError(f"need -1 < rho1 < rho2 < 1, got ({rho1}, {rho2})")
    alphas = np.asarray(alphas, dtype=float).ravel()
    bad = ~((alphas > 0.0) & (alphas < math.pi / 2.0))
    if bad.any():
        raise ValueError(f"alpha must lie in (0, pi/2), got {alphas[bad][0]}")
    _check_open_unit("rho0", rho0)
    delta = _distortion_in_a(rho1, rho2, rho0)
    return np.array([delta(math.sin(alpha)) for alpha in alphas.tolist()])


def optimal_alpha_by_root(rho1: float, rho2: float) -> float:
    """Half-apex angle minimizing the distortion over the annulus.

    The minimum is attained exactly where the two boundary parallels have
    equal stretch, i.e. at the unique root a0 of F(rho2, a, rho1) = 1.
    log F(rho2, a, rho1) is strictly decreasing in a and changes sign on
    (-1, 1), so plain bisection converges; iteration stops once
    |F - 1| < 1e-14.  The root always satisfies rho1 < a0 < rho2.
    """
    if not -1.0 < rho1 < rho2 < 1.0:
        raise ValueError(f"need -1 < rho1 < rho2 < 1, got ({rho1}, {rho2})")
    lo, hi = -1.0 + 1e-12, 1.0 - 1e-12

    def g(a: float) -> float:
        return log_squared_stretch(rho2, a, rho1)

    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(math.expm1(gm)) < 1e-14:
            break
        if gm > 0.0:
            lo = mid
        else:
            hi = mid
        if mid in (lo, hi) and hi - lo <= math.ulp(mid) * 2:
            break
    return math.asin(mid)


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
    it, so the search is safe.  Agrees with :func:`optimal_alpha_by_root` to
    well below 1e-9; the two are kept as genuinely independent code paths.
    """
    if not -1.0 < rho1 < rho2 < 1.0:
        raise ValueError(f"need -1 < rho1 < rho2 < 1, got ({rho1}, {rho2})")

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
    if not -1.0 < rho1 < rho2 < 1.0:
        raise ValueError(f"need -1 < rho1 < rho2 < 1, got ({rho1}, {rho2})")
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


def _refine_extremum(
    f: Callable[[float], float],
    grid: np.ndarray,
    values: np.ndarray,
    idx: int,
    maximize: bool,
) -> tuple[float, float]:
    lo = grid[max(idx - 1, 0)]
    hi = grid[min(idx + 1, len(grid) - 1)]
    if hi - lo <= 1e-12:
        return float(grid[idx]), float(values[idx])
    return _golden_section(f, float(lo), float(hi), 1e-12, maximize)


def profile_distortion(profile: "MeridianProfile", n_grid: int = 4097) -> DistortionReport:
    """Numeric distortion of an arbitrary rotationally symmetric profile.

    Both principal stretches are scanned on a dense endpoint-clustered grid
    in colatitude: along the meridian h_m = s'(eps), along the parallel
    h_p = s(eps) sin(alpha) / sin(eps).  Each grid extremum (plus the two
    endpoints) is then sharpened by golden-section search to a window of
    1e-12 in colatitude, and the report takes the overall extremes over both
    directions.  Deterministic for a fixed grid; value ties resolve toward
    the smaller height.
    """
    if n_grid < 64:
        raise ValueError("n_grid must be at least 64")
    eps_hi, eps_lo = profile.eps_hi, profile.eps_lo
    mid = 0.5 * (eps_hi + eps_lo)
    half = 0.5 * (eps_lo - eps_hi)
    j = np.arange(n_grid)
    eps = mid - half * np.cos(np.pi * j / (n_grid - 1))
    eps[0], eps[-1] = eps_hi, eps_lo

    sa = profile.cone.sin_alpha
    h_m, h_p = profile.stretches(eps)
    if np.any(h_p <= 0.0):
        raise NonPositiveStretch("profile slant distance vanishes on the annulus")
    if np.any(h_m <= 0.0):
        raise NonPositiveStretch("profile slant derivative vanishes on the annulus")

    directions = (
        (np.log(h_m), lambda e: math.log(float(profile.s_prime(e)))),
        (np.log(h_p), lambda e: math.log(float(profile.s(e)) * sa / math.sin(e))),
    )

    # (value, rho, eps) candidates; ties resolve toward smaller rho.
    best_sup: tuple[float, float] | None = None
    best_inf: tuple[float, float] | None = None
    for values, scalar_f in directions:
        for maximize in (True, False):
            idx_best = int(np.argmax(values) if maximize else np.argmin(values))
            for idx in {idx_best, 0, n_grid - 1}:
                e_star, v_star = _refine_extremum(scalar_f, eps, values, idx, maximize)
                rho_star = math.cos(e_star)
                if maximize:
                    cand = (v_star, rho_star)
                    if (
                        best_sup is None
                        or cand[0] > best_sup[0]
                        or (cand[0] == best_sup[0] and cand[1] < best_sup[1])
                    ):
                        best_sup = cand
                else:
                    cand = (v_star, rho_star)
                    if (
                        best_inf is None
                        or cand[0] < best_inf[0]
                        or (cand[0] == best_inf[0] and cand[1] < best_inf[1])
                    ):
                        best_inf = cand

    sup_log, arg_sup = best_sup
    inf_log, arg_inf = best_inf
    return DistortionReport(sup_log, inf_log, sup_log - inf_log, arg_sup, arg_inf)
