"""Exception types shared across the package."""


class SocpathError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(SocpathError, ValueError):
    """Array shapes are inconsistent with the cone spec or with each other."""


class NotInterior(SocpathError, ValueError):
    """A point that must lie strictly inside the cone does not."""


class NonFiniteData(SocpathError, ValueError):
    """Problem data contain NaN or inf, or entries whose squares overflow."""


class InvalidParams(SocpathError, ValueError):
    """Solver parameters violate an admissibility condition."""


class SingularSystem(SocpathError, ArithmeticError):
    """The assembled Newton system is numerically singular."""


class StartOutsideNeighborhood(SocpathError, ValueError):
    """The starting point is not inside the required central-path neighborhood."""


class MaxIterationsExceeded(SocpathError, RuntimeError):
    """The stop criterion does not hold after the closed-form step count."""


class ConeSpecMismatch(SocpathError, ValueError):
    """Two problems that must share a cone structure do not."""


class EmptyAdmissibleSet(SocpathError, RuntimeError):
    """No warm-start weight satisfies the admissibility conditions."""


class InvalidPoint(SocpathError, ValueError):
    """A point violates a structural precondition of the requested operation."""


class ParseError(SocpathError, ValueError):
    """A problem or solution file could not be parsed.

    Carries optional location context for CLI error reporting.
    """

    def __init__(self, message, field=None, line=None):
        super().__init__(message)
        self.field = field
        self.line = line

    def context(self):
        parts = []
        if self.line is not None:
            parts.append(f"line {self.line}")
        if self.field is not None:
            parts.append(f"field {self.field!r}")
        return ", ".join(parts)
