"""Unit-sphere geometry in longitude/height coordinates.

A point of the unit sphere is addressed by its longitude ``theta`` and its
height ``rho`` (the z-coordinate), embedding to

    (sqrt(1 - rho^2) cos(theta), sqrt(1 - rho^2) sin(theta), rho).

The poles are excluded: every operation works on the open chart
``-1 < rho < 1``, ``0 <= theta < 2*pi``.  Angles are radians throughout;
degrees exist only at the ingestion/CLI layer.  Latitude ``arcsin(rho)`` and
colatitude ``arccos(rho)`` are derived accessors, never stored.
"""

from __future__ import annotations

import cmath
import math

TAU = 2.0 * math.pi


class _Record:
    """Immutable record (``AttributeError`` on assignment): a subclass's annotated
    names are its fields, in order, class attributes their defaults.  Built by
    position or keyword, then ``__post_init__``; equal by value unless ``eq=False``."""

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if (n := len(args)) != len(fields) or kwargs:
            values = {**self._defaults, **kwargs, **dict(zip(fields, args))}
            if n > len(fields) or kwargs.keys() & fields[:n] or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__} takes the fields {fields}, got "
                                f"{n} positional and the keywords {sorted(kwargs)}")
            args = [values[f] for f in fields]
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in self.__dict__.items())
        return f"{type(self).__qualname__}({body})"


def _check_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite coordinate: {v!r}")


def _check_open_unit(name: str, v: float) -> None:
    if not -1.0 < v < 1.0:
        raise ValueError(f"{name} must lie in (-1, 1), got {v}")


def _check_band(rho1: float, rho2: float) -> None:
    """Reject heights that bound no band of the open chart."""
    if not -1.0 < rho1 < rho2 < 1.0:
        raise ValueError(f"need -1 < rho1 < rho2 < 1, got ({rho1}, {rho2})")


def _parallel_radius(rho: float) -> float:
    """Radius sqrt(1 - rho^2) of the parallel at ``rho``, accurate near a pole."""
    return math.sqrt((1.0 - rho) * (1.0 + rho))


class SphericalPoint(_Record):
    """Point on the unit sphere with longitude ``theta`` and height ``rho``."""

    theta: float
    rho: float

    def __post_init__(self):
        _check_finite(self.theta, self.rho)
        _check_open_unit("rho", self.rho)
        object.__setattr__(self, "theta", self.theta % TAU)

    @property
    def xyz(self) -> tuple[float, float, float]:
        r = _parallel_radius(self.rho)
        return (r * math.cos(self.theta), r * math.sin(self.theta), self.rho)

    @property
    def colatitude(self) -> float:
        """Spherical distance from the north pole, arccos(rho)."""
        return math.acos(self.rho)

    @property
    def latitude(self) -> float:
        return math.asin(self.rho)

    @classmethod
    def from_xyz(cls, x: float, y: float, z: float) -> "SphericalPoint":
        norm = math.sqrt(x * x + y * y + z * z)
        if norm == 0.0:
            raise ValueError("zero vector has no direction")
        return cls(math.atan2(y, x) % TAU, z / norm)


class SphericalAnnulus(_Record):
    """Open band of the sphere between the parallels at heights rho1 < rho2."""

    rho1: float
    rho2: float

    def __post_init__(self):
        _check_finite(self.rho1, self.rho2)
        _check_band(self.rho1, self.rho2)


class PlanarPoint(_Record):
    """Point of one of the auxiliary planes."""

    re: float
    im: float

    def __post_init__(self):
        _check_finite(self.re, self.im)

    @property
    def complex(self) -> complex:
        return complex(self.re, self.im)

    @property
    def radius(self) -> float:
        return abs(self.complex)

    @property
    def angle(self) -> float:
        return cmath.phase(self.complex) % TAU


def stereographic_project(p: SphericalPoint) -> PlanarPoint:
    """Project from the north pole onto the equator plane.

    The image of (theta, rho) is the complex number
    sqrt((1+rho)/(1-rho)) * exp(i*theta); the south pole goes to the origin
    (in the limiting sense) and the north pole is out of the chart.
    """
    r = math.sqrt((1.0 + p.rho) / (1.0 - p.rho))
    return PlanarPoint(r * math.cos(p.theta), r * math.sin(p.theta))


def stereographic_unproject(w: PlanarPoint | complex) -> SphericalPoint:
    """Inverse of :func:`stereographic_project`; rejects the origin."""
    z = w.complex if isinstance(w, PlanarPoint) else complex(w)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("non-finite planar point")
    m2 = z.real * z.real + z.imag * z.imag
    if m2 == 0.0:
        raise ValueError("origin corresponds to the south pole (out of chart)")
    rho = (m2 - 1.0) / (m2 + 1.0)
    return SphericalPoint(cmath.phase(z) % TAU, rho)


def spherical_distance(p: SphericalPoint, q: SphericalPoint) -> float:
    """Geodesic (great-circle) distance, in [0, pi].

    Evaluated as atan2(|P x Q|, P . Q), which equals arccos(P . Q) but stays
    accurate at both ends of the range (arccos alone loses half the digits
    near coincident or antipodal points).
    """
    a = p.xyz
    b = q.xyz
    dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    cx = a[1] * b[2] - a[2] * b[1]
    cy = a[2] * b[0] - a[0] * b[2]
    cz = a[0] * b[1] - a[1] * b[0]
    return math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz), dot)


def spherical_midpoint(p: SphericalPoint, q: SphericalPoint) -> SphericalPoint:
    """Geodesic midpoint; antipodal pairs are rejected (midpoint not unique)."""
    a = p.xyz
    b = q.xyz
    s = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    norm = math.sqrt(s[0] ** 2 + s[1] ** 2 + s[2] ** 2)
    if norm < 1e-12:
        raise ValueError("antipodal points have no unique midpoint")
    return SphericalPoint.from_xyz(*s)


def _band_logs(rho1: float, rho2: float) -> tuple[float, float]:
    """log(r1^2/r2^2) and t = 4 pi Mod of a band the caller checked, in log1p
    forms (w = rho2 - rho1) that do not cancel on a narrow band."""
    w = rho2 - rho1
    excess = w * (rho1 + rho2) / ((1.0 - rho2) * (1.0 + rho2))
    t = math.log1p(w / (1.0 + rho1)) + math.log1p(w / (1.0 - rho2))
    return math.log1p(excess), t


def annulus_modulus(a: SphericalAnnulus) -> float:
    """Conformal modulus of the annulus between the two parallels.

    Computed through the stereographic image, a round annulus with radii
    sqrt((1+rho)/(1-rho)); the value, additive over concatenated bands, is
    t / (4*pi) with t from :func:`_band_logs`.
    """
    return _band_logs(a.rho1, a.rho2)[1] / (4.0 * math.pi)
