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
* ``kummer_1f1``: Taylor series for moderate arguments (with the Kummer
  transform applied for negative x), large-argument expansions once
  |x| > asymptotic_switch * |b|.
* ``phi1``: a series of Kummer functions (path A, valid for 0 <= x < 1 and
  0 < alpha < gamma) with a one-dimensional integral representation as
  path B / oracle.  ``log_phi1`` is the overflow-free form used by the
  posterior module.
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


def _is_nonpositive_integer(v):
    return v <= 0 and abs(v - round(v)) < _INTEGER_EPS


def _gamma_sign(v):
    """Sign of Gamma(v) for v off the poles."""
    return -1.0 if v < 0 and math.floor(v) % 2 else 1.0


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
    (k! (1-nu+k)), where an integer order n trades its k = n-1 term and
    the Gamma term for (-x)^(n-1) (psi(n) - log x) / (n-1)!."""
    n = round(nu)
    if abs(nu - n) < _INTEGER_EPS:
        nu, skip = n, n - 1
        psi = math.fsum(1.0 / k for k in range(1, n)) - np.euler_gamma  # psi(n) = H_(n-1) - gamma
        total = (-x) ** (n - 1) / math.factorial(n - 1) * (psi - np.log(x))
    else:
        skip, total = -1, math.gamma(1.0 - nu) * x ** (nu - 1.0)
    scale = np.exp(x)
    tol = max(2e-16, 1e-3 * config.rel_tol)  # the continued fraction's margin
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
    # convergence is linear near x = 1, so demand a margin below rel_tol
    tol = max(2e-16, 1e-3 * config.rel_tol)
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


def _kummer_series(a, b, x, config):
    """Plain Taylor series; exact finite sum when a is a nonpositive integer."""
    total = 1.0
    term = 1.0
    for k in range(config.max_terms):
        term *= (a + k) * x / ((b + k) * (k + 1.0))
        total += term
        if term == 0.0 or abs(term) < config.rel_tol * abs(total) + config.abs_tol:
            return total
    raise NumericalError(f"1F1 series did not converge (a={a}, b={b}, x={x})")


def _kummer_asymptotic_sum(p, q, z, config):
    """sum_k (p)_k (q)_k / (k! z^k), truncated at the smallest term."""
    total = 1.0
    term = 1.0
    prev = math.inf
    for k in range(config.max_terms):
        term *= (p + k) * (q + k) / ((k + 1.0) * z)
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if abs(term) < config.rel_tol * abs(total):
            break
    return total


def kummer_1f1(a, b, x, config: SpecFunConfig = DEFAULT_CONFIG):
    """Confluent hypergeometric function 1F1(a, b, x) for real arguments.

    Uses the Taylor series for moderate x and the standard large-|x|
    expansions (for either sign of x) once |x| > asymptotic_switch * |b|.
    A value that underflows is 0.0; one past the float range raises
    NumericalError.
    """
    if _is_nonpositive_integer(b):
        raise DomainError(f"1F1 undefined for b a nonpositive integer (b={b})")
    if x == 0.0:
        return 1.0
    if _is_nonpositive_integer(a):
        return _kummer_series(a, b, x, config)  # terminating polynomial
    # with b - a a nonpositive integer the x < 0 expansion's algebraic term
    # is 0 and the Kummer transform below is an exact terminating sum
    if abs(x) > config.asymptotic_switch * abs(b) and not (
        x < 0 and _is_nonpositive_integer(b - a)
    ):
        # Gamma(b) alone overflows past b = 171.6, so the front is built in
        # log space
        if x > 0:
            sign = _gamma_sign(b) * _gamma_sign(a)
            log_front = math.lgamma(b) - math.lgamma(a) + x + (a - b) * math.log(x)
            s = _kummer_asymptotic_sum(b - a, 1.0 - a, x, config)
        else:
            sign = _gamma_sign(b) * _gamma_sign(b - a)
            log_front = math.lgamma(b) - math.lgamma(b - a) - a * math.log(-x)
            s = _kummer_asymptotic_sum(a, a - b + 1.0, -x, config)
        try:
            return math.copysign(math.exp(log_front + math.log(abs(s))), sign * s)
        except OverflowError:
            raise NumericalError(
                f"1F1 exceeds the float range (a={a}, b={b}, x={x})"
            ) from None
    if x < 0:
        # Kummer transform avoids cancellation in the alternating series.
        return math.exp(x) * _kummer_series(b - a, b, -x, config)
    return _kummer_series(a, b, x, config)


def log_kummer_1f1(a, b, x, config: SpecFunConfig = DEFAULT_CONFIG):
    """log 1F1(a, b, x) on the positive-value domain, safe for huge |x|.

    Requires b > 0 and a > 0 (for x >= 0) or b - a > 0 (for x < 0), which
    guarantees the value is positive.
    """
    if b <= 0:
        raise DomainError(f"log 1F1 needs b > 0 (b={b})")
    if x == 0.0:
        return 0.0
    if x < 0:
        if b - a <= 0:
            raise DomainError("log 1F1 with x < 0 needs b - a > 0")
        return x + log_kummer_1f1(b - a, b, -x, config)
    if a <= 0:
        raise DomainError("log 1F1 with x > 0 needs a > 0")
    if x > config.asymptotic_switch * b:
        s = _kummer_asymptotic_sum(b - a, 1.0 - a, x, config)
        return math.lgamma(b) - math.lgamma(a) + x + (a - b) * math.log(x) + math.log(s)
    # Streaming log-sum of the (all positive) Taylor terms.
    log_term = 0.0
    peak = 0.0
    acc = 1.0
    for k in range(config.max_terms):
        log_term += math.log((a + k) * x / ((b + k) * (k + 1.0)))
        if log_term > peak:
            acc = acc * math.exp(peak - log_term) + 1.0
            peak = log_term
        else:
            inc = math.exp(log_term - peak)
            acc += inc
            if inc < config.rel_tol * acc and (a + k) * x < (b + k) * (k + 1.0):
                return peak + math.log(acc)
    raise NumericalError(f"log 1F1 series did not converge (a={a}, b={b}, x={x})")


def kummer_1f1_quad(a, b, x, rel_tol=1e-13):
    """Quadrature oracle via the Euler integral (needs b > a > 0)."""
    if not (b > a > 0):
        raise DomainError("Euler-integral oracle needs b > a > 0")
    lead = math.lgamma(b) - math.lgamma(a) - math.lgamma(b - a)
    shift = max(x, 0.0)

    def f(t):
        return math.exp(
            x * t - shift + (a - 1.0) * math.log(t) + (b - a - 1.0) * math.log1p(-t)
        )

    # t = u^2 / t = 1 - v^2 substitutions remove the endpoint singularities
    half = math.sqrt(0.5)
    left = adaptive_quad(
        lambda u: 2.0 * u * f(u * u), 0.0, half, rel_tol=rel_tol
    )
    right = adaptive_quad(
        lambda v: 2.0 * v * f(1.0 - v * v), 0.0, half, rel_tol=rel_tol
    )
    return math.exp(lead + shift) * (left + right)


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


def phi1_series_1f1(alpha, beta, gamma, x, y, config: SpecFunConfig = DEFAULT_CONFIG):
    """Path A: Phi1 as a Kummer-function series (corrected coefficients).

    Phi1 = e^y sum_n [(alpha)_n (beta)_n x^n / ((gamma)_n n!)]
               1F1(gamma - alpha, gamma + n, -y)
    valid for 0 <= x < 1 and 0 < alpha < gamma.
    """
    if not (0.0 <= x < 1.0):
        raise DomainError(f"path A requires 0 <= x < 1 (x={x})")
    if not (0.0 < alpha < gamma):
        raise DomainError("path A requires 0 < alpha < gamma")
    total = 0.0
    coef = 1.0
    small = 0
    for n in range(config.max_terms):
        term = coef * kummer_1f1(gamma - alpha, gamma + n, -y, config)
        total += term
        small = small + 1 if abs(term) < config.rel_tol * abs(total) else 0
        if small >= 2 or (coef == 0.0):
            return math.exp(y) * total
        coef *= (alpha + n) * (beta + n) * x / ((gamma + n) * (n + 1.0))
    raise NumericalError("Phi1 Kummer series did not converge")


def log_phi1(alpha, beta, gamma, x, y, config: SpecFunConfig = DEFAULT_CONFIG):
    """log Phi1 by path A in log space; immune to overflow for any real y.

    Requires 0 <= x < 1, 0 < alpha < gamma, beta > 0 so all terms are
    positive.
    """
    if not (0.0 <= x < 1.0):
        raise DomainError(f"log Phi1 requires 0 <= x < 1 (x={x})")
    if not (0.0 < alpha < gamma):
        raise DomainError("log Phi1 requires 0 < alpha < gamma")
    if beta <= 0:
        raise DomainError("log Phi1 requires beta > 0")
    log_coef = 0.0
    peak = -math.inf
    acc = 0.0
    small = 0
    for n in range(config.max_terms):
        lt = log_coef + log_kummer_1f1(gamma - alpha, gamma + n, -y, config)
        if lt > peak:
            acc = acc * math.exp(peak - lt) + 1.0 if acc else 1.0
            peak = lt
            small = 0
        else:
            inc = math.exp(lt - peak)
            acc += inc
            small = small + 1 if inc < config.rel_tol * acc else 0
        if small >= 2 or x == 0.0:
            return y + peak + math.log(acc)
        log_coef += math.log((alpha + n) * (beta + n) * x / ((gamma + n) * (n + 1.0)))
    raise NumericalError("log Phi1 series did not converge")


def _phi1_integral(alpha, beta, gamma, x, y, rel_tol):
    """int_0^1 t^(a-1) (1-t)^(g-a-1) (1-x t)^(-b) e^(y t - shift) dt by halves."""
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
    left = adaptive_quad(lambda u: 2.0 * u * core(u * u), 0.0, half, rel_tol=rel_tol)
    right = adaptive_quad(
        lambda v: 2.0 * v * core(1.0 - v * v), 0.0, half, rel_tol=rel_tol
    )
    return left + right, shift


def phi1_quadrature(alpha, beta, gamma, x, y, config: SpecFunConfig = DEFAULT_CONFIG):
    """Path B: one-dimensional integral representation (oracle grade).

    Needs alpha > 0, gamma - alpha > 0 and x < 1; beta, y unrestricted.
    """
    if not (alpha > 0 and gamma - alpha > 0):
        raise DomainError("path B requires alpha > 0 and gamma - alpha > 0")
    if x >= 1:
        raise DomainError("path B requires x < 1")
    integral, shift = _phi1_integral(alpha, beta, gamma, x, y, config.rel_tol)
    lead = math.lgamma(gamma) - math.lgamma(alpha) - math.lgamma(gamma - alpha)
    return math.exp(lead + shift) * integral


def log_phi1_quadrature(alpha, beta, gamma, x, y, config: SpecFunConfig = DEFAULT_CONFIG):
    """log of path B, stable for large |y|; same domain as phi1_quadrature."""
    if not (alpha > 0 and gamma - alpha > 0):
        raise DomainError("path B requires alpha > 0 and gamma - alpha > 0")
    if x >= 1:
        raise DomainError("path B requires x < 1")
    integral, shift = _phi1_integral(alpha, beta, gamma, x, y, config.rel_tol)
    lead = math.lgamma(gamma) - math.lgamma(alpha) - math.lgamma(gamma - alpha)
    return lead + shift + math.log(integral)


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
