"""Output checks, independent of the program under test.

Nothing here imports `conicmaps`.  The closed forms below are derived from
the squared-stretch function of the conformal map,

    log F(x, y, z) = (1+y) log((1+z)/(1+x)) + (1-y) log((1-z)/(1-x)),

written without cancellation, so they stay accurate on narrow bands.
log F(rho2, a, rho1) is linear in a, which gives the optimal exponent a0 in
closed form; the program finds it by bisection and by golden-section search
instead.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

# Published distortions of the canonical band (47.5 to 62.5 degrees), with
# the tolerance each one is stated at.
PUBLISHED_DISTORTION = {
    "central": (0.0171839, 1e-4),
    "delisle": (0.00862621, 1e-4),
    "delisle-equidistant": (0.00921812, 1e-3),
    "orthogonal": (0.00866925, 1e-4),
    "teichmuller": (0.0115244, 5e-4),
    "lambert": (0.00862633, 1e-5),
}
PUBLISHED_A0 = (0.821529, 1e-5)
PUBLISHED_DELTA_MIN = (0.0086263354, 1e-5)

TABLE_KINDS = (
    "central",
    "delisle",
    "delisle-equidistant",
    "orthogonal",
    "teichmuller",
    "lambert",
)

# SVG coordinates carry 8 decimals.
SVG_TOL = 1e-7


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- closed forms ---------------------------------------------------------

def log_f(x: float, y: float, z: float) -> float:
    """log F(x, y, z), cancellation-free when x is close to z."""
    return (1.0 + y) * math.log1p((z - x) / (1.0 + x)) + (1.0 - y) * math.log1p(
        (x - z) / (1.0 - x)
    )


def optimal_a0(rho1: float, rho2: float) -> float:
    """Root of log F(rho2, a, rho1) = (1+a) P + (1-a) Q = 0."""
    p = math.log1p((rho1 - rho2) / (1.0 + rho2))
    q = math.log1p((rho2 - rho1) / (1.0 - rho2))
    return (p + q) / (q - p)


def conformal_distortion(rho1: float, rho2: float, a: float) -> float:
    """Half the spread of log F(x, a, rho1) over rho1 <= x <= rho2.

    log F is convex in x with its minimum at x = a.
    """
    f1, f2 = 0.0, log_f(rho2, a, rho1)
    lowest = log_f(a, a, rho1) if rho1 <= a <= rho2 else min(f1, f2)
    return 0.5 * (max(f1, f2) - lowest)


def sector(kind: str, rho1: float, rho2: float) -> tuple[float, float, float]:
    """(sin alpha, smallest slant, largest slant) of the developed band."""
    r1, r2 = math.sqrt(1.0 - rho1 * rho1), math.sqrt(1.0 - rho2 * rho2)
    eps1, eps2 = math.acos(rho1), math.acos(rho2)
    if kind == "lambert":
        sa = optimal_a0(rho1, rho2)
        s1 = r1 / sa
        return sa, s1 * (math.tan(0.5 * eps2) / math.tan(0.5 * eps1)) ** sa, s1
    # The other five use the cone through both boundary parallels.
    sa = (r1 - r2) / math.hypot(r1 - r2, rho2 - rho1)
    s1, s2 = r1 / sa, r2 / sa
    if kind == "delisle-equidistant":
        return sa, s1 - (eps1 - eps2), s1
    return sa, s2, s1


# --- parsing helpers ------------------------------------------------------

def _field(text: str, prefix: str) -> float:
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    raise CheckFailed(f"no line starting with {prefix!r}")


def _csv(lines: list, columns: int) -> np.ndarray:
    rows = []
    for line in lines:
        cells = line.split(",")
        require(len(cells) == columns, f"ragged CSV row {line!r}")
        for cell in cells:
            require(format(float(cell), ".17g") == cell, f"{cell!r} does not round-trip")
        rows.append([float(c) for c in cells])
    values = np.array(rows)
    require(bool(np.all(np.isfinite(values))), "non-finite CSV value")
    return values


# --- per-workload checks --------------------------------------------------

def check_optimize(text: str, rho1: float, rho2: float) -> float:
    """Check the four summary lines of `optimize`; return the printed a0."""
    a0 = _field(text, "a0 = ")
    p = math.log1p((rho1 - rho2) / (1.0 + rho2))
    q = math.log1p((rho2 - rho1) / (1.0 - rho2))
    # a0 is printed with 10 significant digits; log F is linear in a with
    # slope p - q.
    residual = math.expm1(log_f(rho2, a0, rho1))
    require(
        abs(residual) <= abs(p - q) * 1e-9 * abs(a0) + 1e-14,
        f"F(rho2, a0, rho1) - 1 = {residual:.3g} at a0 = {a0!r}",
    )
    delta = conformal_distortion(rho1, rho2, a0)
    for step in (-1e-3, 1e-3):
        require(
            delta <= conformal_distortion(rho1, rho2, a0 + step),
            f"distortion at a0 {a0!r} exceeds the one at a0{step:+g}",
        )
    # The bisection stops once |F - 1| < 1e-14, which moves delta_min by up
    # to half of that, on top of the 10 printed digits.
    delta_min = _field(text, "delta_min = ")
    delta0 = conformal_distortion(rho1, rho2, optimal_a0(rho1, rho2))
    require(
        abs(delta_min - delta0) <= 6e-10 * delta0 + 1e-14,
        f"delta_min {delta_min!r} vs closed form {delta0!r}",
    )
    agreement = _field(text, "root/scan agreement = ")
    require(agreement <= 1e-9, f"root and scan solvers differ by {agreement!r} rad")
    return a0


def check_band(outputs: list, rho1: float, rho2: float, canonical: bool) -> None:
    """`optimize` then `table` on one band."""
    opt_text, table_text = outputs
    a0 = check_optimize(opt_text, rho1, rho2)
    lines = table_text.splitlines()
    require(lines[0].split() == ["kind", "distortion", "sup_stretch", "inf_stretch"],
            "bad table header")
    rows = {}
    for line in lines[1:]:
        kind, *cells = line.split()
        values = [float(c) for c in cells]
        require(len(values) == 3, f"bad table row {line!r}")
        require(all(math.isfinite(v) and v >= 0.0 for v in values),
                f"row {kind} is not finite and non-negative")
        rows[kind] = values
    require(tuple(rows) == TABLE_KINDS, f"table rows {tuple(rows)}")

    delta0 = conformal_distortion(rho1, rho2, optimal_a0(rho1, rho2))
    delta, sup, inf = rows["lambert"]
    # 10 decimals are printed.
    require(abs(delta - delta0) <= 1e-9, f"lambert distortion {delta!r} vs {delta0!r}")
    require(abs(sup - 1.0) <= 1e-9, f"lambert sup stretch {sup!r}")
    require(abs(inf - math.exp(-delta0)) <= 1e-9, f"lambert inf stretch {inf!r}")

    if canonical:
        for kind, (ref, tol) in PUBLISHED_DISTORTION.items():
            require(abs(rows[kind][0] - ref) <= tol,
                    f"canonical {kind}: {rows[kind][0]!r} vs published {ref}")
        require(abs(a0 - PUBLISHED_A0[0]) <= PUBLISHED_A0[1], f"canonical a0 {a0!r}")
        delta_min = _field(opt_text, "delta_min = ")
        require(abs(delta_min - PUBLISHED_DELTA_MIN[0]) <= PUBLISHED_DELTA_MIN[1],
                f"canonical delta_min {delta_min!r}")


def check_curves(outputs: list, rho1: float, rho2: float, samples: int,
                 scan_samples: int) -> None:
    """`curves` then `optimize --scan`, both as CSV on stdout."""
    curves_text, scan_text = outputs
    lines = curves_text.splitlines()
    header = lines[0].split(",")
    require(header[0] == "rho" and "sigma_lambert" in header, f"bad header {header}")
    require(len(lines) == samples + 1, f"{len(lines) - 1} curve rows, want {samples}")
    table = _csv(lines[1:], len(header))
    rho, sigma = table[:, 0], table[:, 1:]
    require(abs(rho[0] - rho1) <= 1e-15 and abs(rho[-1] - rho2) <= 1e-15,
            "curve rows do not span the band")
    require(bool(np.all(sigma >= 1.0)), "a bi-Lipschitz constant is below 1")

    a0 = optimal_a0(rho1, rho2)
    lam = table[:, header.index("sigma_lambert")]
    want = np.array([math.exp(abs(0.5 * log_f(r, a0, rho1))) for r in rho])
    worst = float(np.max(np.abs(lam - want) / want))
    require(worst <= 1e-11, f"lambert sigma off the closed form by {worst:.3g}")
    require(abs(lam[0] - 1.0) <= 1e-12 and abs(lam[-1] - 1.0) <= 1e-12,
            "lambert sigma is not 1 at the band edges")

    check_optimize(scan_text, rho1, rho2)
    lines = scan_text.splitlines()
    start = lines.index("sin_alpha,distortion") + 1
    require(len(lines) - start == scan_samples, "scan row count")
    scan = _csv(lines[start:], 2)
    require(bool(np.all(scan[:, 1] >= 0.0)), "negative scan distortion")
    # Samples sit at a = (i+1)/(n+1); the minimum belongs to one of the two
    # samples around a0, the one the closed form ranks lower.
    lo = math.floor((scan_samples + 1) * a0) - 1
    pair = [i for i in (lo, lo + 1) if 0 <= i < scan_samples]
    best = min(pair, key=lambda i: conformal_distortion(rho1, rho2, scan[i, 0]))
    got = int(np.argmin(scan[:, 1]))
    require(got == best, f"scan minimum at sample {got}, closed form says {best}")


def _path_points(d: str) -> np.ndarray:
    return np.array(d.replace("M", " ").replace("L", " ").split(), dtype=float).reshape(-1, 2)


def check_map(svg: str, kind: str, cut_deg: float, rho1: float, rho2: float) -> None:
    """`project` of the graticule plus the coastline overlay."""
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG is not XML: {exc}") from exc
    ns = "{http://www.w3.org/2000/svg}"
    require(root.tag == ns + "svg", f"root element {root.tag}")
    groups = root.findall(ns + "g")
    require(len(groups) == 2, f"{len(groups)} layers, want graticule and coastline")

    sa, s_min, s_max = sector(kind, rho1, rho2)
    half_angle = math.pi * sa
    center = cut_deg % 360.0 - 180.0
    meridian_angles = []
    for k in range(37):
        off = (-180.0 + 10.0 * k - center + 180.0) % 360.0 - 180.0
        meridian_angles.append(math.radians(off) * sa)
        if off == -180.0:
            meridian_angles.append(half_angle)
    meridian_angles = np.array(meridian_angles)

    rays = arcs = 0
    for layer, group in enumerate(groups):
        paths = group.findall(ns + "path")
        require(len(paths) > 0, f"layer {layer} is empty")
        for path in paths:
            pts = _path_points(path.get("d"))
            r = np.hypot(pts[:, 0], pts[:, 1])
            psi = np.arctan2(pts[:, 0], -pts[:, 1])
            require(bool(np.all((r >= s_min - SVG_TOL) & (r <= s_max + SVG_TOL))),
                    f"{kind}: a vertex lies outside the slant range of the band")
            require(bool(np.all(np.abs(psi) <= half_angle + SVG_TOL)),
                    f"{kind}: a vertex lies outside the developed sector")
            if layer:
                continue
            if np.ptp(r) <= SVG_TOL:
                arcs += 1
            else:
                require(np.ptp(psi) <= SVG_TOL,
                        f"{kind}: graticule path is neither an arc nor a ray")
                require(float(np.min(np.abs(meridian_angles - psi[0]))) <= SVG_TOL,
                        f"{kind}: a ray does not sit at a meridian")
                rays += 1
    require(rays == 37, f"{rays} meridian rays, want 37")
    require(arcs >= 5, f"{arcs} parallel arcs, want at least 5")
