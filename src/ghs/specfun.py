"""Special-function kernel: generalized exponential integral, Kummer's
confluent hypergeometric function 1F1, and the two-variable confluent
hypergeometric function Phi1.

Evaluation regimes
------------------
* ``gen_exp_integral``: power/log series for x < 1, continued fraction for
  x >= 1.  ``exp_scaled_expint`` computes exp(x)*E_nu(x) jointly, so it
  never overflows, for one order and an array of x; the scalars wrap it.
* ``phi1`` and ``log_phi1`` wrap one kernel, ``_log_euler``: the Euler
  integral of Phi1 for gamma > alpha > 0 and x < 1, in log space for any
  beta and y.
* ``kummer_1f1`` and ``log_kummer_1f1`` wrap one core, ``_log_kummer``: that
  kernel at beta = 0 for 0 < a < b and |x| >= b, with a recurrence in b for
  a >= b > 0, x >= b (also after the Kummer transform), a Taylor series else.
"""

import math

import numpy as np

from .errors import DomainError, NumericalError, _check_array, _check_real
# adaptive_quad stays importable here: perfbench/spans.py patches this name
from .quadrature import adaptive_quad  # noqa: F401

__all__ = [
    "gen_exp_integral",
    "exp_scaled_expint",
    "exp_scaled_gen_exp_integral",
    "kummer_1f1",
    "log_kummer_1f1",
    "phi1",
    "log_phi1",
]

# A 1F1 Taylor sum cancelled past _REL_TOL is refused.  Series and continued
# fractions stop at a relative term of _STOP_TOL, a margin below it, because
# the tail they leave can sum past their last term.
_REL_TOL = 1e-12
_STOP_TOL = 1e-15
_ABS_TOL = 1e-300  # absolute floor of the E_nu series' stop, for a sum near 0
_MAX_TERMS = 10_000  # iteration cap of every series, fraction and recurrence
_INTEGER_EPS = 1e-9
# orders closer than this to an integer n >= 1 take the E_nu series' joint
# form of its two cancelling terms; _ZETA gives that form's lgamma(1 - eps)
# to a relative 1e-17 there
_NEAR_INTEGER = 0.05
_RESCALE = 2.0**900  # the 1F1 Taylor sum is rescaled by 2^-900 past this
_ZETA = (  # zeta(k), k = 2..13
    1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
    1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
    1.000994575127818, 1.0004941886041194, 1.000246086553308, 1.0001227133475785,
)


def _is_nonpositive_integer(v):
    return v <= 0 and abs(v - round(v)) < _INTEGER_EPS


def _signed_exp(sign, log_value, what):
    """sign * e^log_value: 0.0 where it underflows, NumericalError past the float range."""
    try:
        return sign * math.exp(log_value)
    except OverflowError:
        raise NumericalError(f"{what} exceeds the float range") from None


def _check_finite(what, names, *values):
    """``values`` as finite floats, each named "<what> argument <name>" in a message."""
    names = names.split()
    return [_check_real(v, f"{what} argument {n}", -math.inf) for v, n in zip(values, names)]


# ---------------------------------------------------------------------------
# Generalized exponential integral  E_nu(x) = int_1^inf exp(-x t) t^(-nu) dt
# ---------------------------------------------------------------------------


def _retire(out, idx, done, value, *state):
    """Store the converged entries of ``value``; return the state of the rest."""
    if not done.any():  # the common case, and most of the cost on small arrays
        return [idx, *state]
    out[idx[done]] = value[done]
    return [idx[~done]] + [s[~done] for s in state]


def _expint_series(nu, x):
    """exp-scaled small-x series, x < 1: Gamma(1-nu) x^(nu-1) - sum_k (-x)^k /
    (k! (1-nu+k)).

    At an order nu = n + eps near an integer n >= 1 the Gamma term and the
    k = n-1 term, whose 1 - nu + k is -eps, both grow as 1/eps and cancel.
    Their sum is taken in one piece instead: by the reflection formula
    Gamma(1-nu) = (-1)^n Gamma(1-eps) / (eps prod_(j<n) (j + eps)),
    it is (-1)^n x^(n-1)/(n-1)! expm1(w)/eps with
    w = eps log x + lgamma(1-eps) - sum_(j<n) log1p(eps/j), and its eps -> 0
    limit (-x)^(n-1) (psi(n) - log x) / (n-1)! at an integer order.  Past
    n = 171, where (n-1)! is no float, that sum is at most 1e30 x^(n-1)/(n-1)!
    < 1e-279, far below an ulp of the rest (at least 1/(nu + 1)): both go.
    """
    n = round(nu)
    eps = nu - n
    if n < 1 or abs(eps) >= _NEAR_INTEGER:
        skip, total = -1, math.gamma(1.0 - nu) * x ** (nu - 1.0)
    elif n > 171:
        skip, total = n - 1, 0.0
    elif eps == 0.0:
        skip = n - 1
        psi = math.fsum(1.0 / k for k in range(1, n)) - np.euler_gamma  # psi(n) = H_(n-1) - gamma
        total = (-x) ** (n - 1) / math.factorial(n - 1) * (psi - np.log(x))
    else:
        skip = n - 1
        # lgamma(1 - eps) = gamma eps + sum_k zeta(k) eps^k / k
        lgamma_1m = np.euler_gamma * eps + math.fsum(
            z * eps**k / k for k, z in enumerate(_ZETA, start=2)
        )
        w = eps * np.log(x) + (lgamma_1m - math.fsum(math.log1p(eps / j) for j in range(1, n)))
        total = (-1) ** n * x ** (n - 1) / math.factorial(n - 1) * (np.expm1(w) / eps)
    scale = np.exp(x)
    out, idx, term = np.empty_like(x), np.arange(x.size), np.ones_like(x)
    for k in range(_MAX_TERMS):
        if k != skip:
            total = total - term / (1.0 - nu + k)
        term = term * (-x / (k + 1.0))
        done = np.abs(term) < _STOP_TOL * np.abs(total) + _ABS_TOL
        idx, x, term, total = _retire(out, idx, done, total, x, term, total)
        if not idx.size:
            return scale * out
    raise NumericalError(f"E_nu series did not converge (nu={nu}, x={x[0]})")


def _expint_scaled_cf(nu, x):
    """Modified-Lentz continued fraction for exp(x) E_nu(x), x >= 1 (DLMF 8.19);
    its convergence is linear near x = 1."""
    tiny = 1e-300
    out, idx = np.empty_like(x), np.arange(x.size)
    b, c = x + nu, np.full_like(x, 1.0 / tiny)
    h = d = 1.0 / b
    for i in range(1, _MAX_TERMS):
        a = -i * (nu - 1.0 + i)
        b = b + 2.0
        d = a * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + a / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _STOP_TOL
        idx, x, b, c, d, h = _retire(out, idx, done, h, x, b, c, d, h)
        if not idx.size:
            return out
    raise NumericalError(f"E_nu continued fraction stalled (nu={nu}, x={x[0]})")


def exp_scaled_expint(nu, x):
    """exp(x) * E_nu(x) for one real order and an array of x >= 0, computed
    jointly so large x never overflows; 0 at x = inf, 1/(nu - 1) at x = 0
    (needs nu > 1).  Each element runs the x < 1 series or the x >= 1
    continued fraction until it converges; negative orders recur down, at
    most _MAX_TERMS steps.  NumericalError where a value passes the float range."""
    nu = _check_real(nu, "E_nu argument nu", -math.inf)
    x = _check_array(x, "E_nu argument x")
    flat = x.ravel()
    if not np.all(flat >= 0):
        raise DomainError(f"E_nu needs x >= 0, not NaN (nu={nu})")
    out = np.zeros_like(flat)  # the x = inf limit
    if (flat == 0.0).any():
        if nu <= 1.0:
            raise DomainError(f"E_nu(0) diverges for nu <= 1 (nu={nu})")
        out[flat == 0.0] = 1.0 / (nu - 1.0)
    pos = (flat > 0.0) & (flat < math.inf)
    xp = flat[pos]
    steps = max(0, math.ceil(-nu))  # march down from an order mu in [0, 1)
    if steps > _MAX_TERMS:
        raise NumericalError(f"E_nu recurrence past {_MAX_TERMS} steps (nu={nu})")
    mu = nu + steps
    with np.errstate(over="ignore"):  # an overflow is refused below
        if mu == 0.0:  # exp(x) E_0(x) = 1/x; the series and fraction hold at any mu > 0
            f = 1.0 / xp
        else:
            f = np.empty_like(xp)
            for part, run in ((xp >= 1.0, _expint_scaled_cf), (xp < 1.0, _expint_series)):
                if part.any():
                    f[part] = run(mu, xp[part])
        for _ in range(steps):  # exp(x) E_(mu-1)(x) = (1 - (mu-1) exp(x) E_mu(x)) / x
            f = (1.0 - (mu - 1.0) * f) / xp
            mu -= 1.0
    if np.isinf(f).any():
        raise NumericalError(f"exp(x) E_nu(x) exceeds the float range (nu={nu})")
    out[pos] = f
    return out.reshape(x.shape)


def exp_scaled_gen_exp_integral(nu, x):
    """exp(x) * E_nu(x) for a scalar x; see :func:`exp_scaled_expint`."""
    value = exp_scaled_expint(nu, x)
    if value.ndim:
        raise DomainError(f"E_nu argument x must be a scalar, got shape {value.shape}")
    return float(value)


def gen_exp_integral(nu, x):
    """Generalized exponential integral E_nu(x) for x >= 0.

    At x = 0 the integral equals 1/(nu-1) and requires nu > 1.
    """
    scaled = exp_scaled_gen_exp_integral(nu, x)
    return math.exp(-x) * scaled if x > 0 else scaled


# ---------------------------------------------------------------------------
# Kummer's 1F1(a, b, x) and the two-variable Phi1(alpha, beta, gamma, x, y)
# ---------------------------------------------------------------------------

# exp-sinh nodes rho = e^((pi/2) sinh s), s in [-4, 4] at step 1/128; log(d rho / rho)
_ES_S = np.arange(-4.0, 4.0 + 1.0 / 256, 1.0 / 128)
_ES_RHO = np.exp(0.5 * math.pi * np.sinh(_ES_S))
_ES_LOG_W = np.log(np.cosh(_ES_S)) + math.log(math.pi / 256)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)  # B_2k / (2k (2k-1))


def _log_beta_ratio(p, q):
    """lgamma(p + q) - lgamma(p) - lgamma(q), p, q > 0; past 10 the larger one's
    lgamma difference is Stirling's series (the plain form loses eps b log b)."""
    small, big = min(p, q), max(p, q)
    if big < 10.0:
        return math.lgamma(p + q) - math.lgamma(p) - math.lgamma(q)
    z = big + small
    tail = sum(c * (z ** -(2 * k + 1) - big ** -(2 * k + 1)) for k, c in enumerate(_STIRLING))
    lead = (big - 0.5) * math.log1p(small / big) + small * (math.log(z) - 1.0)
    return lead + tail - math.lgamma(small)


def _log_euler(alpha, beta, gamma, x, y):
    """log Phi1(alpha, beta, gamma, x, y), gamma > alpha > 0, x < 1, by the Euler
    integral (DLMF 13.4.1 at beta = 0): Gamma(gamma) / (Gamma(alpha) Gamma(gamma-alpha))
    int_0^1 t^(alpha-1) (1-t)^(gamma-alpha-1) (1-xt)^-beta e^(yt) dt, split at the
    integrand's peak t* in z = logit t (bisection on the z-derivative, alpha at
    z = -inf, alpha - gamma at +inf; the curvature there gives the width w).
    Exp-sinh nodes run t = t* e^-rho left, 1 - t = (1-t*) e^-rho right, every
    factor relative to its value at t*, the sum max-shifted.  NumericalError where
    gamma <= alpha: parameters that rounded together."""
    c = gamma - alpha
    if not c > 0.0:
        raise NumericalError(f"Euler integral needs gamma > alpha (alpha={alpha}, gamma={gamma})")
    lo, hi = -700.0, 700.0  # e^(+-z) stays finite
    for _ in range(50):  # 1 - x t = (1 - t) + t (1 - x), a sum of nonnegatives
        z = 0.5 * (lo + hi)
        t, s = 1.0 / (1.0 + math.exp(-z)), 1.0 / (1.0 + math.exp(z))
        slope = alpha * s - c * t + t * s * (beta * x / (s + t * (1.0 - x)) + y)
        lo, hi = (z, hi) if slope > 0 else (lo, z)
    z = 0.5 * (lo + hi)
    t0, s0 = 1.0 / (1.0 + math.exp(-z)), 1.0 / (1.0 + math.exp(z))
    q0 = s0 + t0 * (1.0 - x)
    curv = t0 * s0 * (y * (s0 - t0) - gamma + beta * x * (s0 * s0 - t0 * t0 * (1.0 - x)) / q0**2)
    w = 1.0 / math.sqrt(-curv) if curv < 0 else 1.0
    # rows: left, right; dz = dlog t / (1 - t) = -dlog(1 - t) / t
    rho = w * np.array([[s0], [t0]]) * _ES_RHO
    e = -np.expm1(-rho)
    d_log_t = np.stack([-rho[0], np.log1p(e[1] * math.exp(-z))])  # log t - log t*
    d_log_s = np.stack([np.log1p(e[0] * math.exp(z)), -rho[1]])  # log(1-t) - log(1-t*)
    log_t0, log_s0 = -math.log1p(math.exp(-z)), -math.log1p(math.exp(z))
    # dt = t d rho on the left and (1 - t) d rho on the right; y * (t - t*)
    log_f = (np.array([[alpha], [alpha - 1.0]]) * d_log_t + np.array([[c - 1.0], [c]]) * d_log_s
             + y * np.stack([-t0 * e[0], s0 * e[1]]) + np.log(rho) + _ES_LOG_W
             - np.array([[log_s0], [log_t0]]))
    if beta:  # log(1 - x t) as in the bisection
        log_q = np.logaddexp(log_s0 + d_log_s, log_t0 + d_log_t + math.log1p(-x))
        log_f -= beta * (log_q - math.log(q0))
    peak = float(log_f.max())
    if log_f[:, -32:].max() > peak - 40.0:  # mass at s > 3.75, where the nodes thin out
        raise NumericalError(f"Phi1 integral cut off (alpha={alpha}, gamma={gamma}, y={y})")
    log_g0 = alpha * log_t0 + c * log_s0 - beta * math.log(q0) + y * t0
    return _log_beta_ratio(alpha, c) + log_g0 + peak + math.log(np.exp(log_f - peak).sum())


def _log_kummer_down(a, b, x):
    """log(e^-x 1F1(a, b, x)), a >= b > 0, x > 0: the kernel's 1F1(c - a, c, -x) at
    c = b + n and c + 1 just past a, then the recurrence in b (DLMF 13.3.2) down to b,
    stable downwards (1F1 is its minimal solution), positive terms below c = a.
    c = b + k keeps its integer part k apart, so c - 1 = b + (k - 1) holds every
    digit of a tiny b; a step adds log(num / c) - log(c - 1), not the log of one
    quotient, which overflows for a subnormal b."""
    n = math.floor(a - b) + 1
    log_m = _log_euler((b - a) + n, 0.0, b + n, 0.0, -x)
    r = math.exp(_log_euler((b - a) + (n + 1), 0.0, b + (n + 1), 0.0, -x) - log_m)
    for k in range(n, 0, -1):  # r = M(c + 1) / M(c), c = b + k
        c, c_1 = b + k, b + (k - 1)
        num = c * (c_1 + x) - x * ((b - a) + k) * r  # c (c - 1) M(c - 1) / M(c)
        log_m += math.log(num / c) - math.log(c_1)
        r = c * c_1 / num
    return log_m


def _kummer_taylor(a, b, x, a_rest=0.0):
    """(sign, log|sum_k (a)_k x^k / ((b)_k k!)|), finite for a nonpositive integer
    a, held as a mantissa times 2^exponent.  The first parameter is a + a_rest, with
    a_rest the rounding error of a difference a.  It stops at a term below the stopping
    tolerance once no later term is larger: the ratio (a+k) x / ((b+k)(k+1)) is
    below 1 in size and never grows again once a + k > 0, b + k > 0 and
    (a+k)(b+k) >= (b-a)(k+1).  A sum cancelled past _REL_TOL (1e-16 of its largest
    term over _REL_TOL of it) is refused, an exact root of a terminated polynomial not."""
    total, term, biggest, exponent = 1.0, 1.0, 1.0, 0
    for k in range(_MAX_TERMS):
        ratio = ((a + k) + a_rest) * x / ((b + k) * (k + 1.0))
        term *= ratio
        total += term
        biggest = max(biggest, abs(term))
        if biggest > _RESCALE:
            term, total, biggest = (math.ldexp(v, -900) for v in (term, total, biggest))
            exponent += 900
        if term == 0.0 or (
            abs(term) < _STOP_TOL * abs(total)
            and abs(ratio) < 1.0
            and min(a, b) + k > 0
            and (a + k) * (b + k) >= (b - a) * (k + 1.0)
        ):
            if total == term == 0.0:  # a terminated polynomial's exact root
                return 1.0, -math.inf
            if 1e-16 * biggest > _REL_TOL * abs(total):
                raise NumericalError(f"1F1 series cancelled (a={a}, b={b}, x={x})")
            return math.copysign(1.0, total), math.log(abs(total)) + exponent * math.log(2.0)
    raise NumericalError(f"1F1 series did not converge (a={a}, b={b}, x={x})")


def _log_kummer(a, b, x):
    """(sign, log|1F1(a, b, x)|), b off the nonpositive integers.  x < 0 keeps
    x for the kernel (a transform costs eps |x|) and takes the Kummer transform
    e^x 1F1(b - a, b, -x) elsewhere, as a nonpositive-integer b - a does, with the
    exact b - a; a == b gives the exact e^x."""
    if x == 0.0:
        return 1.0, 0.0
    if a == b:  # 1F1(a, a, x) = e^x
        return 1.0, x
    if 0.0 < a < b and abs(x) >= b:
        try:
            return 1.0, _log_euler(a, 0.0, b, 0.0, x)
        except NumericalError:  # a or b - a tiny at moderate x: the Taylor series
            pass
    if _is_nonpositive_integer(a):
        return _kummer_taylor(a, b, x)
    p, z, shift = (b - a, -x, 0.0) if x < 0 else (a, x, x)
    if 0.0 < b <= p < b + _MAX_TERMS and z >= b:  # _MAX_TERMS caps the recurrence
        return 1.0, _log_kummer_down(p, b, z) + shift
    if x < 0 or _is_nonpositive_integer(b - a):
        s = b - a
        t = s - b  # TwoSum: s + rest is b - a exactly, where s may round onto an integer
        sign, log_value = _kummer_taylor(s, b, -x, (b - (s - t)) - (a + t))
        return sign, log_value + x
    return _kummer_taylor(a, b, x)


def kummer_1f1(a, b, x):
    """1F1(a, b, x) for real a, b, x: 0.0 on underflow, NumericalError past the
    float range or where a series cancels or does not converge."""
    a, b, x = _check_finite("1F1", "a b x", a, b, x)
    if _is_nonpositive_integer(b):
        raise DomainError(f"1F1 undefined for b a nonpositive integer (b={b})")
    return _signed_exp(*_log_kummer(a, b, x), f"1F1(a={a}, b={b}, x={x})")


def log_kummer_1f1(a, b, x):
    """log 1F1(a, b, x), safe for huge |x|, on the positive-value domain b > 0
    and a > 0 (for x > 0) or b >= a (for x < 0)."""
    a, b, x = _check_finite("1F1", "a b x", a, b, x)
    if not (b > 0 and (a > 0 or x <= 0) and (b >= a or x >= 0)):
        raise DomainError(f"log 1F1 outside its positive-value domain (a={a}, b={b}, x={x})")
    return _log_kummer(a, b, x)[1]


def log_phi1(alpha, beta, gamma, x, y):
    """log Phi1(alpha, beta, gamma, x, y) for gamma > alpha > 0, x < 1, any real beta and y,
    where Phi1 > 0; safe for huge |y|, refused (NumericalError) for alpha or gamma - alpha tiny."""
    alpha, beta, gamma, x, y = _check_finite(
        "Phi1", "alpha beta gamma x y", alpha, beta, gamma, x, y)
    if not (0.0 < alpha < gamma and x < 1.0):
        raise DomainError(f"Phi1 needs gamma > alpha > 0, x < 1 (alpha={alpha}, "
                          f"beta={beta}, gamma={gamma}, x={x}, y={y})")
    return _log_euler(alpha, beta, gamma, x, y)


def phi1(alpha, beta, gamma, x, y):
    """Phi1 = sum_(m,n) (alpha)_(m+n) (beta)_m x^m y^n / ((gamma)_(m+n) m! n!) on
    the domain of :func:`log_phi1`; NumericalError past the float range."""
    return _signed_exp(1.0, log_phi1(alpha, beta, gamma, x, y), "Phi1")
