"""Special-function kernel: generalized exponential integral, Kummer's
confluent hypergeometric function, and the two-variable confluent
hypergeometric function.

Every function here has an independent quadrature oracle (the ``*_quad``
variants) built on a different representation, so the series/continued
fraction code paths can be cross-validated end to end.

Evaluation regimes
------------------
* ``gen_exp_integral``: power/log series for x < 1, continued fraction for
  x >= 1.  ``exp_scaled_expint`` computes exp(x)*E_nu(x) jointly, so it
  never overflows, for one order and an array of x; the scalars wrap it.
* ``kummer_1f1`` and ``log_kummer_1f1`` wrap one core that returns the sign
  and the log magnitude.  It takes the large-|x| expansion once
  |x| > asymptotic_switch * |b|, or |x| > max(2 |b|, max_terms / 2) where
  the Taylor series cannot finish, if the exponentially small term it drops
  is negligible and its sum reaches the stopping tolerance, finite, before
  its smallest term; otherwise a scaled Taylor series (of the Kummer transform
  for negative x).
* ``phi1``: a series of Kummer functions (path A, valid for 0 <= x < 1 and
  0 < alpha < gamma), summed once in log space for ``phi1_series_1f1`` and
  the overflow-free ``log_phi1``, with a one-dimensional integral
  representation as path B / oracle, which ``phi1_quadrature`` and
  ``kummer_1f1_quad`` wrap.
"""

import math

import numpy as np

from .config import DEFAULT_CONFIG, SpecFunConfig
from .errors import DomainError, NumericalError
from .quadrature import adaptive_quad

__all__ = [
    "gen_exp_integral",
    "exp_scaled_expint",
    "exp_scaled_gen_exp_integral",
    "gen_exp_integral_quad",
    "exp_scaled_gen_exp_integral_quad",
    "kummer_1f1",
    "log_kummer_1f1",
    "kummer_1f1_quad",
    "phi1",
    "log_phi1",
    "phi1_series_1f1",
    "phi1_double_series",
    "phi1_quadrature",
    "log_phi1_quadrature",
]

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


def _stop_tol(config):
    """Relative term size at which a series or continued fraction stops: a
    margin below rel_tol, because the tail it leaves can sum past its last term."""
    return max(2e-16, 1e-3 * config.rel_tol)


def _gamma_sign(v):
    """Sign of Gamma(v) for v off the poles."""
    return -1.0 if v < 0 and math.floor(v) % 2 else 1.0


def _signed_exp(sign, log_value, what):
    """sign * e^log_value: 0.0 where it underflows, NumericalError past the float range."""
    try:
        return sign * math.exp(log_value)
    except OverflowError:
        raise NumericalError(f"{what} exceeds the float range") from None


# ---------------------------------------------------------------------------
# Generalized exponential integral  E_nu(x) = int_1^inf exp(-x t) t^(-nu) dt
# ---------------------------------------------------------------------------


def _retire(out, idx, done, value, *state):
    """Store the converged entries of ``value``; return the state of the rest."""
    if not done.any():  # the common case, and most of the cost on small arrays
        return [idx, *state]
    out[idx[done]] = value[done]
    return [idx[~done]] + [s[~done] for s in state]


def _expint_series(nu, x, config):
    """exp-scaled small-x series, x < 1: Gamma(1-nu) x^(nu-1) - sum_k (-x)^k /
    (k! (1-nu+k)).

    At an order nu = n + eps near an integer n >= 1 the Gamma term and the
    k = n-1 term, whose 1 - nu + k is -eps, both grow as 1/eps and cancel.
    Their sum is taken in one piece instead: by the reflection formula
    Gamma(1-nu) = (-1)^n Gamma(1-eps) / (eps prod_(j<n) (j + eps)),
    it is (-1)^n x^(n-1)/(n-1)! expm1(w)/eps with
    w = eps log x + lgamma(1-eps) - sum_(j<n) log1p(eps/j), and its eps -> 0
    limit (-x)^(n-1) (psi(n) - log x) / (n-1)! at an integer order.
    """
    n = round(nu)
    eps = nu - n
    if n < 1 or abs(eps) >= _NEAR_INTEGER:
        skip, total = -1, math.gamma(1.0 - nu) * x ** (nu - 1.0)
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
    tol = _stop_tol(config)
    out, idx, term = np.empty_like(x), np.arange(x.size), np.ones_like(x)
    for k in range(config.max_terms):
        if k != skip:
            total = total - term / (1.0 - nu + k)
        term = term * (-x / (k + 1.0))
        done = np.abs(term) < tol * np.abs(total) + config.abs_tol
        idx, x, term, total = _retire(out, idx, done, total, x, term, total)
        if not idx.size:
            return scale * out
    raise NumericalError(f"E_nu series did not converge (nu={nu}, x={x[0]})")


def _expint_scaled_cf(nu, x, config):
    """Modified-Lentz continued fraction for exp(x) E_nu(x), x >= 1 (DLMF 8.19)."""
    tiny = 1e-300
    tol = _stop_tol(config)  # convergence is linear near x = 1
    out, idx = np.empty_like(x), np.arange(x.size)
    b, c = x + nu, np.full_like(x, 1.0 / tiny)
    h = d = 1.0 / b
    for i in range(1, config.max_terms):
        a = -i * (nu - 1.0 + i)
        b = b + 2.0
        d = a * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + a / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < tol
        idx, x, b, c, d, h = _retire(out, idx, done, h, x, b, c, d, h)
        if not idx.size:
            return out
    raise NumericalError(f"E_nu continued fraction stalled (nu={nu}, x={x[0]})")


def exp_scaled_expint(nu, x, config: SpecFunConfig = DEFAULT_CONFIG):
    """exp(x) * E_nu(x) for one real order and an array of x >= 0, computed
    jointly so large x never overflows; 0 at x = inf, 1/(nu - 1) at x = 0
    (needs nu > 1).  Each element runs the x < 1 series or the x >= 1
    continued fraction until it converges; negative orders recur down."""
    flat = np.asarray(x, dtype=float).ravel()
    if not np.all(flat >= 0):
        raise DomainError("generalized exponential integral needs x >= 0, not NaN")
    out = np.zeros_like(flat)  # the x = inf limit
    if (flat == 0.0).any():
        if nu <= 1.0:
            raise DomainError(f"E_nu(0) diverges for nu <= 1 (nu={nu})")
        out[flat == 0.0] = 1.0 / (nu - 1.0)
    pos = (flat > 0.0) & (flat < math.inf)
    xp = flat[pos]
    steps = max(0, math.ceil(-nu))  # march down from an order mu in [0, 1)
    mu = nu + steps
    if abs(mu) < _INTEGER_EPS:
        f = 1.0 / xp
    else:
        f = np.empty_like(xp)
        for part, run in ((xp >= 1.0, _expint_scaled_cf), (xp < 1.0, _expint_series)):
            if part.any():
                f[part] = run(mu, xp[part], config)
    for _ in range(steps):  # exp(x) E_(mu-1)(x) = (1 - (mu-1) exp(x) E_mu(x)) / x
        f = (1.0 - (mu - 1.0) * f) / xp
        mu -= 1.0
    out[pos] = f
    return out.reshape(np.shape(x))


def exp_scaled_gen_exp_integral(nu, x, config: SpecFunConfig = DEFAULT_CONFIG):
    """exp(x) * E_nu(x) for a scalar x; see :func:`exp_scaled_expint`."""
    return float(exp_scaled_expint(nu, x, config))


def gen_exp_integral(nu, x, config: SpecFunConfig = DEFAULT_CONFIG):
    """Generalized exponential integral E_nu(x) for x >= 0.

    At x = 0 the integral equals 1/(nu-1) and requires nu > 1.
    """
    scaled = exp_scaled_gen_exp_integral(nu, x, config)
    return math.exp(-x) * scaled if x > 0 else scaled


def gen_exp_integral_quad(nu, x, rel_tol=1e-13):
    """Quadrature oracle: direct integral on t in (1, inf)."""
    if x < 0:
        raise DomainError("x must be nonnegative")
    if x == 0.0:
        if nu <= 1.0:
            raise DomainError("divergent at x = 0 for nu <= 1")
        return 1.0 / (nu - 1.0)
    return math.exp(-x) * exp_scaled_gen_exp_integral_quad(nu, x, rel_tol)


def exp_scaled_gen_exp_integral_quad(nu, x, rel_tol=1e-13):
    """Quadrature oracle for exp(x) E_nu(x) = int_0^inf e^(-x s) (1+s)^(-nu) ds,
    for every real order: in w = x s for x >= 1, in y = log(1 + s) below."""
    if x <= 0:
        raise DomainError("oracle needs x > 0")

    if x >= 1.0:
        # mass sits at s ~ 1/x; integrate in w = x s
        def g(w):
            return math.exp(-w - nu * math.log1p(w / x)) / x

        cut = 60.0 + abs(nu)
        return adaptive_quad(g, 0.0, cut, rel_tol=rel_tol) + adaptive_quad(
            g, cut, np.inf, rel_tol=rel_tol
        )

    # s = e^y - 1: smooth in y for every order, the mass ending near y = log(1/x)
    def f(y):
        return math.exp(-x * math.expm1(min(y, 700.0)) - (nu - 1.0) * y)

    cut = math.log1p((abs(nu - 1.0) + 1.0) / x)
    return adaptive_quad(f, 0.0, cut, rel_tol=rel_tol) + adaptive_quad(
        f, cut, np.inf, rel_tol=rel_tol
    )


# ---------------------------------------------------------------------------
# Kummer's confluent hypergeometric function 1F1(a, b, x)
# ---------------------------------------------------------------------------


def _kummer_taylor(a, b, x, config):
    """(sign, log|sum_k (a)_k x^k / ((b)_k k!)|); an exact finite sum when a
    is a nonpositive integer.  The sum is a mantissa times 2^exponent, so no
    term over- or underflows.  It stops at a term below the stopping
    tolerance once every later term is smaller still: the term ratio
    (a+k) x / ((b+k)(k+1)) is below 1 in size and never grows again once
    a + k > 0, b + k > 0 and (a+k)(b+k) >= (b-a)(k+1).
    """
    tol = _stop_tol(config)
    total, term, exponent = 1.0, 1.0, 0
    for k in range(config.max_terms):
        ratio = (a + k) * x / ((b + k) * (k + 1.0))
        term *= ratio
        total += term
        if abs(term) > _RESCALE:
            term, total = math.ldexp(term, -900), math.ldexp(total, -900)
            exponent += 900
        if term == 0.0 or (
            abs(term) < tol * abs(total)
            and abs(ratio) < 1.0
            and min(a, b) + k > 0
            and (a + k) * (b + k) >= (b - a) * (k + 1.0)
        ):
            log_total = math.log(abs(total)) if total else -math.inf
            return math.copysign(1.0, total), log_total + exponent * math.log(2.0)
    raise NumericalError(f"1F1 series did not converge (a={a}, b={b}, x={x})")


def _kummer_asymptotic_sum(p, q, z, config, tol):
    """(sum_k (p)_k (q)_k / (k! z^k), whether it reached relative size tol
    with rounding in its largest term below rel_tol and a finite total).

    It stops there or at its smallest term, which is reached once a term
    ratio (p+k)(q+k) / ((k+1) z) of size >= 1 can only grow: for k > -p,
    k > -q and (k+1)^2 >= (p-1)(q-1).  Earlier terms may rise and fall.
    """
    total = term = biggest = 1.0
    for k in range(config.max_terms):
        ratio = (p + k) * (q + k) / ((k + 1.0) * z)
        if abs(ratio) >= 1.0 and k > max(-p, -q) and (k + 1.0) ** 2 >= (p - 1.0) * (q - 1.0):
            break
        term *= ratio
        total += term
        biggest = max(biggest, abs(term))
        if abs(term) < tol * abs(total):
            return total, biggest * 1e-15 < config.rel_tol * abs(total) < math.inf
    return total, False


def _exp_term_negligible(a, b, x, tol):
    """Whether 1F1's large-x expansion, x > 0, may keep only its dominant term.

    The term dropped (DLMF 13.7.2) is, relative to the one kept, about
    Gamma(a)/Gamma(b - a) e^-x x^(b - 2a); the kept series' truncation
    error is of the same size.  For small b it is still far above tol at
    x = 30 |b|.
    """
    if _is_nonpositive_integer(b - a):
        return True  # 1/Gamma(b - a) = 0: there is no such term
    log_size = math.lgamma(a) - math.lgamma(b - a) - x + (b - 2.0 * a) * math.log(x)
    return log_size < math.log(tol)


def _log_kummer(a, b, x, config):
    """(sign, log|1F1(a, b, x)|) for b off the nonpositive integers: the one
    place that picks a 1F1 regime (see the module docstring)."""
    if x == 0.0:
        return 1.0, 0.0
    if _is_nonpositive_integer(a):
        return _kummer_taylor(a, b, x, config)  # terminating polynomial
    # x < 0 takes the Kummer transform 1F1(a, b, x) = e^x 1F1(b - a, b, -x);
    # below, x > 0 and the result is log(e^-x 1F1(a, b, x)) + shift
    shift = max(x, 0.0)
    if x < 0:
        a, x = b - a, -x
    tol = _stop_tol(config)
    # a nonpositive integer a (b - a before the transform) leaves no
    # exponentially small term, and the Taylor series is a finite sum; below
    # x = 2|b| the dropped term's own series can grow by many orders, so its
    # first term says nothing and the max_terms trigger waits for x > 2|b|
    if (
        x > min(config.asymptotic_switch * abs(b), max(2.0 * abs(b), 0.5 * config.max_terms))
        and not _is_nonpositive_integer(a)
        and _exp_term_negligible(a, b, x, tol)
    ):
        s, converged = _kummer_asymptotic_sum(b - a, 1.0 - a, x, config, tol)
        if converged:  # the front is in log space: Gamma(b) overflows past b = 171.6
            sign = _gamma_sign(b) * _gamma_sign(a) * math.copysign(1.0, s)
            log_front = math.lgamma(b) - math.lgamma(a) + (a - b) * math.log(x)
            return sign, shift + log_front + math.log(abs(s))
    sign, log_value = _kummer_taylor(a, b, x, config)
    return sign, log_value + (shift - x)


def kummer_1f1(a, b, x, config: SpecFunConfig = DEFAULT_CONFIG):
    """Confluent hypergeometric function 1F1(a, b, x) for real arguments.

    The sign and log magnitude come from the regime choice of
    ``_log_kummer``.  A value that underflows is 0.0; one past the float
    range raises NumericalError.
    """
    if _is_nonpositive_integer(b):
        raise DomainError(f"1F1 undefined for b a nonpositive integer (b={b})")
    return _signed_exp(*_log_kummer(a, b, x, config), f"1F1(a={a}, b={b}, x={x})")


def log_kummer_1f1(a, b, x, config: SpecFunConfig = DEFAULT_CONFIG):
    """log 1F1(a, b, x) on the positive-value domain, safe for huge |x|.

    Requires b > 0 and a > 0 (for x > 0) or b - a > 0 (for x < 0), which
    guarantees the value is positive.
    """
    if not (b > 0 and (a > 0 or x <= 0) and (b - a > 0 or x >= 0)):
        raise DomainError(f"log 1F1 outside its positive-value domain (a={a}, b={b}, x={x})")
    return _log_kummer(a, b, x, config)[1]


def kummer_1f1_quad(a, b, x, rel_tol=1e-13):
    """Quadrature oracle via the Euler integral (needs b > a > 0), which is
    path B of Phi1 at beta = 0."""
    return phi1_quadrature(a, 0.0, b, 0.0, x, SpecFunConfig(rel_tol=rel_tol))


# ---------------------------------------------------------------------------
# Two-variable confluent hypergeometric function Phi1(alpha, beta, gamma, x, y)
# ---------------------------------------------------------------------------


def phi1_double_series(alpha, beta, gamma, x, y, config: SpecFunConfig = DEFAULT_CONFIG):
    """Reference double series, |x| < 1.  Test oracle only; needs moderate y.

    Phi1 = sum_{m,n} (alpha)_{m+n} (beta)_m x^m y^n / ((gamma)_{m+n} m! n!).
    The beta Pochhammer rides with the x index; this is what distinguishes
    the corrected Kummer-series reduction from its published-in-error form.
    """
    if abs(x) >= 1:
        raise DomainError("double series requires |x| < 1")
    from scipy import special as sp

    total = 0.0
    cm = 1.0  # (beta)_m x^m / m!
    for m in range(config.max_terms):
        # inner sum over n with ratio ((alpha+m+n)/(gamma+m+n)) * y/(n+1)
        inner = 1.0
        t = 1.0
        for n in range(config.max_terms):
            t *= (alpha + m + n) * y / ((gamma + m + n) * (n + 1.0))
            inner += t
            if abs(t) < 1e-17 * abs(inner) + config.abs_tol:
                break
        lead = cm * sp.poch(alpha, m) / sp.poch(gamma, m)
        total += lead * inner
        if abs(lead * inner) < config.rel_tol * abs(total) + config.abs_tol and m > 2:
            return total
        cm *= beta + m
        cm *= x / (m + 1.0)
    raise NumericalError("Phi1 double series did not converge")


def _phi1_kummer_series(alpha, beta, gamma, x, y, config):
    """(sign, log|Phi1|) by the series of ``phi1_series_1f1``.  Each 1F1 in
    it is positive, so a term has its coefficient's sign (negative terms
    need beta < 0).  Coefficients are kept in log space and terms are summed
    against the largest so far, so nothing over- or underflows for any y.
    """
    if not (0.0 <= x < 1.0):
        raise DomainError(f"path A requires 0 <= x < 1 (x={x})")
    if not (0.0 < alpha < gamma):
        raise DomainError("path A requires 0 < alpha < gamma")
    coef_sign, log_coef = 1.0, 0.0
    peak = -math.inf
    acc = 0.0
    small = 0
    for n in range(config.max_terms):
        lt = log_coef + _log_kummer(gamma - alpha, gamma + n, -y, config)[1]
        if lt > peak:
            acc *= math.exp(peak - lt)
            peak = lt
        inc = coef_sign * math.exp(lt - peak)
        acc += inc
        small = small + 1 if abs(inc) < config.rel_tol * abs(acc) else 0
        ratio = (alpha + n) * (beta + n) * x / ((gamma + n) * (n + 1.0))
        if small >= 2 or ratio == 0.0:
            return math.copysign(1.0, acc), y + peak + math.log(abs(acc))
        coef_sign = math.copysign(coef_sign, coef_sign * ratio)
        log_coef += math.log(abs(ratio))
    raise NumericalError("Phi1 Kummer series did not converge")


def phi1_series_1f1(alpha, beta, gamma, x, y, config: SpecFunConfig = DEFAULT_CONFIG):
    """Path A: Phi1 as a Kummer-function series (corrected coefficients).

    Phi1 = e^y sum_n [(alpha)_n (beta)_n x^n / ((gamma)_n n!)]
               1F1(gamma - alpha, gamma + n, -y)
    valid for 0 <= x < 1 and 0 < alpha < gamma.  A value past the float
    range raises NumericalError.
    """
    return _signed_exp(*_phi1_kummer_series(alpha, beta, gamma, x, y, config), "Phi1")


def log_phi1(alpha, beta, gamma, x, y, config: SpecFunConfig = DEFAULT_CONFIG):
    """log Phi1 by path A in log space; immune to overflow for any real y.

    Requires 0 <= x < 1, 0 < alpha < gamma, beta > 0 so all terms are
    positive.
    """
    if beta <= 0:
        raise DomainError("log Phi1 requires beta > 0")
    return _phi1_kummer_series(alpha, beta, gamma, x, y, config)[1]


def log_phi1_quadrature(alpha, beta, gamma, x, y, config: SpecFunConfig = DEFAULT_CONFIG):
    """log of path B, stable for large |y|; same domain as phi1_quadrature.

    The integral int_0^1 t^(a-1) (1-t)^(g-a-1) (1-x t)^(-b) e^(y t) dt is
    taken by halves with e^max(y, 0) factored out; the substitutions
    t = u^2 and t = 1 - v^2 remove the endpoint singularities.
    """
    if not (alpha > 0 and gamma - alpha > 0):
        raise DomainError("path B requires alpha > 0 and gamma - alpha > 0")
    if x >= 1:
        raise DomainError("path B requires x < 1")
    shift = max(y, 0.0)

    def core(t):
        return math.exp(
            (alpha - 1.0) * math.log(t)
            + (gamma - alpha - 1.0) * math.log1p(-t)
            - beta * math.log1p(-x * t)
            + y * t
            - shift
        )

    half = math.sqrt(0.5)
    rel_tol = config.rel_tol
    left = adaptive_quad(lambda u: 2.0 * u * core(u * u), 0.0, half, rel_tol=rel_tol)
    right = adaptive_quad(
        lambda v: 2.0 * v * core(1.0 - v * v), 0.0, half, rel_tol=rel_tol
    )
    lead = math.lgamma(gamma) - math.lgamma(alpha) - math.lgamma(gamma - alpha)
    return lead + shift + math.log(left + right)


def phi1_quadrature(alpha, beta, gamma, x, y, config: SpecFunConfig = DEFAULT_CONFIG):
    """Path B: one-dimensional integral representation (oracle grade).

    Needs alpha > 0, gamma - alpha > 0 and x < 1; beta, y unrestricted.
    A value past the float range raises NumericalError.
    """
    return _signed_exp(1.0, log_phi1_quadrature(alpha, beta, gamma, x, y, config), "Phi1")


def phi1(alpha, beta, gamma, x, y, config: SpecFunConfig = DEFAULT_CONFIG):
    """Phi1(alpha, beta, gamma, x, y), dispatching path A then path B.

    Paths agree on their overlapping domain; DomainError if neither applies.
    """
    if 0.0 <= x < 1.0 and 0.0 < alpha < gamma:
        return phi1_series_1f1(alpha, beta, gamma, x, y, config)
    if alpha > 0 and gamma - alpha > 0 and x < 1:
        return phi1_quadrature(alpha, beta, gamma, x, y, config)
    raise DomainError(
        f"no evaluation path for Phi1(alpha={alpha}, beta={beta}, gamma={gamma}, "
        f"x={x}, y={y})"
    )
