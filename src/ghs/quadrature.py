"""Adaptive quadrature used by every oracle in the package.

Thin wrapper over QUADPACK's Gauss-Kronrod subdivision (scipy.integrate.quad)
with both relative and absolute stopping criteria.  All closed-form routines
elsewhere are cross-validated against integrals computed here, so this module
must stay independent of the series/continued-fraction code paths.
"""

import warnings

import numpy as np

from .errors import NumericalError


def adaptive_quad(f, a, b, rel_tol=1e-12, abs_tol=1e-300, limit=500, points=None):
    """Integrate ``f`` over ``(a, b)`` adaptively; return the value.

    Raises NumericalError if QUADPACK reports a failure and the error
    estimate is not clearly below the requested tolerances.
    """
    # imported here, like BSpline in ghs.gamsel, to keep `import ghs` light
    from scipy import integrate

    kwargs = {"epsabs": abs_tol, "epsrel": rel_tol, "limit": limit}
    if points is not None and np.isfinite(a) and np.isfinite(b):
        kwargs["points"] = points
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(f, a, b, **kwargs)
    if not np.isfinite(value):
        raise NumericalError(f"quadrature returned {value} on ({a}, {b})")
    if err > max(abs_tol, 10.0 * rel_tol * abs(value)) and err > 1e-10 * abs(value):
        raise NumericalError(
            f"quadrature error {err:.3e} too large for value {value:.6e}"
        )
    return value

