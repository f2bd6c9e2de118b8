"""Exception types shared across the package, and the three argument checks
that raise them: an integer, a whole number and a finite real.  Each check
returns the plain Python value and raises the error class its caller names,
ConfigError for a configuration and DomainError for a mathematical argument.
"""

import numbers
import operator
import sys


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


def _check_integer(value, name, least=0, error=DomainError):
    """``value`` as an int >= ``least``; an integer is what ``operator.index``
    takes, so 2.0 and "2" are not."""
    try:
        number = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if number < least:
        raise error(f"{name} must be >= {least}, got {value!r}")
    return number


def _check_whole(value, name, least=0, error=DomainError):
    """``value`` as an int >= ``least``; a whole number is a real number with
    no fraction, so 1e3 and 2.0 are, "5", 2.5 and inf are not."""
    if not (isinstance(value, numbers.Real) and value >= least and value % 1 == 0):
        raise error(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(value)


def _check_real(value, name, above=0.0, error=DomainError, inclusive=False):
    """``value`` as a float: a finite real number (not a string) > ``above``,
    or >= ``above`` when ``inclusive``."""
    if not (
        isinstance(value, numbers.Real)
        and abs(value) <= sys.float_info.max  # finite, also as a float
        and (value > above or inclusive and value == above)
    ):
        sign = ">=" if inclusive else ">"
        raise error(f"{name} must be a finite real number {sign} {above:g}, got {value!r}")
    return float(value)
