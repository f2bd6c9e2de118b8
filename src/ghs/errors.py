"""Exception types shared across the package."""


class GhsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GhsError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class DimensionError(GhsError, ValueError):
    """A vector argument does not match the declared dimension."""


class ConfigError(GhsError, ValueError):
    """A configuration object is internally inconsistent."""


class DegenerateError(GhsError, ValueError):
    """Input data is too degenerate for the operation (ties, constants)."""


class NumericalError(GhsError, ArithmeticError):
    """A numerical subroutine failed (non-convergence, singular solve)."""


class LengthError(GhsError, ValueError):
    """Two sequences that must align have different lengths."""
