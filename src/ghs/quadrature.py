"""Adaptive quadrature used by every oracle in the package.

Thin wrapper over QUADPACK's Gauss-Kronrod subdivision (scipy.integrate.quad)
with a relative tolerance of 1e-12, an absolute floor of 1e-300 and at most
500 subintervals.  All closed-form routines elsewhere are cross-validated
against integrals computed here, so this module must stay independent of the
series/continued-fraction code paths.
"""

import math
import warnings

from .errors import NumericalError

_ABS_TOL, _REL_TOL = 1e-300, 1e-12


def adaptive_quad(f, a, b):
    """Integrate ``f`` over ``(a, b)`` adaptively; return the value.

    Raises NumericalError if QUADPACK reports a failure and the error
    estimate is not clearly below the requested tolerances.
    """
    # imported here: only the oracles integrate, and `import ghs` loads no SciPy
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(f, a, b, epsabs=_ABS_TOL, epsrel=_REL_TOL, limit=500)
    if not math.isfinite(value):
        raise NumericalError(f"quadrature returned {value} on ({a}, {b})")
    if err > max(_ABS_TOL, 10.0 * _REL_TOL * abs(value)) and err > 1e-10 * abs(value):
        raise NumericalError(
            f"quadrature error {err:.3e} too large for value {value:.6e}"
        )
    return value
