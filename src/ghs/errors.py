"""Exception types shared across the package, and the argument checks that
raise them: an integer, a dimension, a whole number, a finite real and an array of reals.
Each scalar check returns the plain Python value and raises the error class
its caller names, ConfigError for a configuration and DomainError for a
mathematical argument.
"""

import numbers
import operator
import sys

import numpy as np


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


def _check_integer(value, name, least=0, error=DomainError, most=None):
    """``value`` as an int >= ``least`` and, if given, <= ``most``; an integer
    is what ``operator.index`` takes, so 2.0 and "2" are not."""
    try:
        number = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if number < least:
        raise error(f"{name} must be >= {least}, got {value!r}")
    if most is not None and number > most:
        raise error(f"{name} must be <= {most}, got an integer of {number.bit_length()} bits")
    return number


def _check_dimension(value):
    """``value`` as a dimension: an integer from 1 to 1e305, where lgamma((d + 1)/2) is still a float."""
    d = _check_integer(value, "dimension", 1)
    if d > 10**305:
        raise DomainError(f"dimension must be at most 1e305, got an integer of {d.bit_length()} bits")
    return d


def _check_whole(value, name, least=0, error=DomainError):
    """``value`` as an int >= ``least``; a whole number is a real number with no fraction,
    at most the largest float, so 1e3 and 2.0 are, "5", 2.5, inf and 10**400 are not."""
    if not (isinstance(value, numbers.Real) and least <= value <= sys.float_info.max and value % 1 == 0):
        raise error(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(value)


def _check_real(value, name, above=0.0, error=DomainError, inclusive=False):
    """``value`` as a float: a finite real number (not a string) > ``above``,
    or >= ``above`` when ``inclusive``.  A NumPy number compares as a float64
    (a float32 one would cast the bounds and warn), a Python int or Fraction exactly."""
    number = float(value) if isinstance(value, (np.floating, np.integer)) else value
    if not (
        isinstance(number, numbers.Real)
        and abs(number) <= sys.float_info.max  # finite, also as a float
        and (number > above or inclusive and number == above)
    ):
        sign = ">=" if inclusive else ">"
        raise error(f"{name} must be a finite real number {sign} {above:g}, got {value!r}")
    return float(number)


def _check_array(value, name):
    """``value`` as a float64 array of real numbers, or DomainError: numeric
    strings, which a float conversion would read, and complex numbers are
    not real numbers.  A float64 array comes back as it is, with no copy."""
    if type(value) is np.ndarray and value.dtype.char == "d":
        return value
    try:
        array = np.asarray(value)
        if array.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in array.flat):
            array = array.astype(float)  # Python ints past the int64 range, Fractions
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be real numbers") from None
    if array.dtype.kind not in "biuf":
        raise DomainError(f"{name} must be real numbers")
    return array if array.dtype.char == "d" else array.astype(float)
