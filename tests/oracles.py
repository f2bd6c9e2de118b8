"""Oracles that only the tests use: the density's total mass by radial
quadrature, the posterior mean from the Phi1 closed form, the mixture
integrals C and D by lambda-space quadrature, and the KL-ball mass by an
mpmath shell integral.  Each is an independent route to a value the package
computes another way.
"""

import math

import mpmath as mp
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

    return adaptive_quad(f, 0.0, 2.0) + adaptive_quad(f, 2.0, np.inf)


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


def ball_mass_mpmath(d, c, r):
    """P(||theta - theta0|| <= r) at ||theta0|| = c, at 40 digits: over shells s about
    the origin, the density of ||theta|| times the share of the shell in the ball,
    1/2 I_z((d-1)/2, 1/2) or 1 minus it where mu < 0, z = (1 - mu)(1 + mu).

    Wide ranges of s are taken in log s with a break per decade, 20 decades
    past an end at 0 or inf (1e-20 of the piece), and narrow ones (|r - c| < s < r + c within a factor
    10) linearly about their middle.  Each piece is scaled to 1, since mp.quad's
    tolerance is absolute.  e^u E_nu(u) is mpmath's expint below u = 50 (at d = 2
    its erfc form), its U(nu, nu, u) form above, and its leading term below
    u = 1e-80, exact there to 1e-40, where mpmath's expint is slow and grows its
    working precision.
    """
    with mp.workdps(40):
        c, r = mp.mpf(c), mp.mpf(r)
        nu, p, half = mp.mpf(d + 1) / 2, mp.mpf(d - 1) / 2, mp.mpf(1) / 2
        # S_(d-1) K_d, the shell area times the density's constant; s^(d-1) cancels
        lead = mp.gamma(nu) / mp.sqrt(2 * mp.pi ** (d + 2)) * 2 * mp.pi ** (mp.mpf(d) / 2) / mp.gamma(half * d)

        def shell(s):
            u = s * s / 2
            if u < mp.mpf("1e-80"):
                return lead * (-mp.euler - mp.log(u) if d == 1 else 1 / (nu - 1))
            if u > 50:
                return lead * u ** (nu - 1) * mp.hyperu(nu, nu, u)
            if d == 2:  # E_(3/2)(u) = 2 e^-u - 2 sqrt(pi u) erfc(sqrt u): faster than expint
                return lead * (2 - 2 * mp.sqrt(mp.pi * u) * mp.exp(u) * mp.erfc(mp.sqrt(u)))
            return lead * mp.exp(u) * mp.expint(nu, u)

        def cap(one_minus, one_plus):  # 1 - mu and 1 + mu
            if d == 1:
                return half
            z = min(max(one_minus * one_plus, 0), 1)  # a node rounded past an end of the range
            share = mp.betainc(p, half, 0, z, regularized=True) / 2
            return share if one_minus <= one_plus else 1 - share

        def scaled_quad(f, pts):
            total = mp.mpf(0)
            for lo, hi in zip(pts, pts[1:]):
                scale = abs(f(lo if hi == mp.inf else hi if lo == -mp.inf else (lo + hi) / 2)) or 1
                total += scale * mp.quad(lambda y: f(y) / scale, [lo, hi])
            return total

        def log_quad(f, lo, hi):  # int_lo^hi f(s) ds on s = e^y
            ylo = mp.log(lo) if lo > 0 else -mp.inf
            yhi = mp.log(hi) if hi < mp.inf else mp.inf
            top = yhi if yhi < mp.inf else ylo + 20 * mp.log(10)
            bottom = ylo if ylo > -mp.inf else top - 20 * mp.log(10)
            n = int(mp.ceil((top - bottom) / mp.log(10)))
            pts = [bottom + (top - bottom) * j / n for j in range(n + 1)]
            pts = [ylo] * (ylo == -mp.inf) + pts + [yhi] * (yhi == mp.inf)
            return scaled_quad(lambda y: f(mp.exp(y)) * mp.exp(y), pts)

        total, a, b = mp.mpf(0), abs(r - c), r + c
        if r > c:  # the whole shells, or one minus the mass past a
            total += 1 - log_quad(shell, a, mp.inf) if a > 1 else log_quad(shell, 0, a)
        if c == 0:
            return total
        if a > 0 and b < 10 * a:  # s = mid + half tau, with 1 - mu and 1 + mu from tau
            mid, width = (c, r) if r < c else (r, c)

            def narrow(tau):
                s = mid + width * tau
                if r < c:
                    one_minus = r * r * (1 - tau * tau) / (2 * c * s)
                    return shell(s) * cap(one_minus, 2 - one_minus) * width
                mu = (2 * r * tau + c * (1 + tau * tau)) / (2 * s)
                return shell(s) * cap(1 - mu, 1 + mu) * width

            return total + scaled_quad(narrow, [-1, 0, 1])

        def crossing(s):
            one_plus = (s + c - r) * (s + c + r) / (2 * s * c)
            return shell(s) * cap((r - s + c) * (r + s - c) / (2 * s * c), one_plus)

        return total + log_quad(crossing, a, b)
