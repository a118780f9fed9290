"""Exception types raised by the geometry and I/O layers."""


class GeometryError(ValueError):
    """Base class for geometric precondition failures."""


class ConditionViolation(GeometryError):
    """A cone construction constraint does not hold for the given inputs."""


class UnsupportedGeometry(GeometryError):
    """The requested construction exists but falls outside the supported

    family (e.g. a cone whose apex would sit below the equator plane, or a
    cylinder)."""


class NoIntersection(GeometryError):
    """The cone does not meet the sphere in two circles."""


class TangentIntersection(GeometryError):
    """The cone touches the sphere along a single circle."""


class OutOfAnnulus(GeometryError):
    """A point lies outside the annulus a projection profile is defined on."""


class OnCutMeridian(GeometryError):
    """A point lies on the meridian along which the cone is cut open."""


class NonPositiveStretch(GeometryError):
    """A principal stretch of a projection profile is not positive."""


class InvalidKind(ValueError):
    """Unknown projection kind name."""


class ParseError(ValueError):
    """Malformed input document."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(ValueError):
    """Structurally valid input with out-of-contract content."""
