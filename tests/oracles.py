"""Oracles that only the tests use: the density's total mass by radial
quadrature, the posterior mean from the Phi1 closed form, and the mixture
integrals C and D by lambda-space quadrature.  Each is an independent route
to a value the package computes another way.
"""

import math

import numpy as np

from ghs.distribution import radial_log_density
from ghs.errors import DomainError
from ghs.posterior import PosteriorModel, _c_like_integral_lambda, _check_vector
from ghs.quadrature import adaptive_quad
from ghs.specfun import log_phi1


def normalization_integral(d):
    """Total mass of the standard density by radial quadrature (should be 1)."""
    d = int(d)
    log_sa = math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)

    def f(r):
        if r <= 0.0:
            return 0.0
        return math.exp(log_sa + (d - 1) * math.log(r) + radial_log_density(d, r))

    return adaptive_quad(f, 0.0, 2.0, rel_tol=1e-10) + adaptive_quad(
        f, 2.0, np.inf, rel_tol=1e-10
    )


def posterior_mean_moment_oracle(model: PosteriorModel, y):
    """Independent closed form for tau >= 1 using the first-moment series.

    E(theta|y) = Phi1(3/2, 1, (d+4)/2, x, a) / [(d+2) Phi1(1/2, 1, (d+2)/2, x, a)] y
    with x = 1 - tau^-2.
    """
    if model.tau < 1.0:
        raise DomainError("moment oracle implemented for tau >= 1 only")
    y, yy = _check_vector(y, model.d)
    a = 0.5 * yy
    if a == 0.0:
        return np.zeros(model.d)
    d = model.d
    x = 1.0 - model.tau**-2
    num = log_phi1(1.5, 1.0, 0.5 * (d + 4), x, a)
    den = log_phi1(0.5, 1.0, 0.5 * (d + 2), x, a)
    return math.exp(num - den) / (d + 2.0) * y


def cd_integrals(a, b, d):
    """The marginal and gradient-weight mixture integrals (C, D), by quadrature:
    exponent d/2 on (1 + lambda^2 b) in C, d/2 + 1 in D."""
    c_val = _c_like_integral_lambda(a, b, d, 0.5 * d)
    return c_val, _c_like_integral_lambda(a, b, d, 0.5 * d + 1.0)
