"""Risk-bound machinery: prior mass of small KL balls, the information-risk
upper bound, and a Monte Carlo estimate of the cumulative-KL (Cesaro-average)
risk of the Bayes estimator.

For data y_1..y_n ~ N(theta, sigma^2 I_d) with a standard grouped-horseshoe
prior on theta, the KL ball of radius 1/n around the truth theta0 is the
Euclidean ball ||theta - theta0|| <= sigma sqrt(2/n), and

    R_n <= 1/n - (1/n) log P(prior mass of that ball).

The mass integrates the closed-form density over shells about the origin, times
the share of each shell in the ball; ``origin_ball_mass`` is that mass at the origin.
"""

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .distribution import _log_scaled_expint
from .distribution import radial_log_density  # noqa: F401  perfbench/spans.py patches this name
from .errors import DomainError, NumericalError, _check_dimension, _check_real, _check_whole
from .posterior import _mixture_moments, _rule
from .quadrature import adaptive_quad  # noqa: F401  perfbench/spans.py patches this name
from .rng import make_rng
from .specfun import _MAX_TERMS, _log_beta_ratio

__all__ = [
    "RiskScenario",
    "kl_ball_radius",
    "kl_ball_prior_mass",
    "origin_ball_mass",
    "risk_upper_bound",
    "cesaro_risk_mc",
]


@dataclass(frozen=True)
class RiskScenario:
    """True mean (``()``, the default, is the origin), noise scale and the sample sizes of interest."""

    d: int
    sigma: float = 1.0
    theta0: tuple = ()
    n_grid: tuple = ()

    def __post_init__(self):
        _check_dimension(self.d)
        _check_real(self.sigma, "sigma")
        try:
            theta0, n_grid = tuple(self.theta0), tuple(self.n_grid)
        except TypeError:
            raise DomainError("theta0 and n_grid must be sequences") from None
        t0 = tuple(_check_real(v, "theta0", -math.inf) for v in theta0)
        if t0 and len(t0) != self.d:
            raise DomainError("theta0 must be d finite values, or () for the origin")
        object.__setattr__(self, "theta0", t0)
        object.__setattr__(self, "n_grid", tuple(_check_whole(n, "n", 2) for n in n_grid))


def kl_ball_radius(scenario: RiskScenario, n):
    """Euclidean radius of the KL ball of size 1/n."""
    return scenario.sigma * math.sqrt(2.0 / _check_whole(n, "n", 2))


def _beta_cf(a, b, y):
    """Lentz's fraction I_y(a, b) a B(a, b) y^-a (1-y)^-b, elementwise; y < (a+1)/(a+b+2)."""
    c, dd = np.ones_like(y), 1.0 / (1.0 - (a + b) * y / (a + 1.0))
    cf = dd.copy()
    for k in range(2, _MAX_TERMS):  # the k-th partial numerator, m = k // 2
        num = (-(a + k // 2) * (a + b + k // 2) if k % 2 else k // 2 * (b - k // 2)) * y / ((a + k - 1) * (a + k))
        dd, c = 1.0 / (1.0 + num * dd), 1.0 + num / c
        cf *= dd * c
        if k % 2 and np.all(abs(dd * c - 1.0) < 1e-15):
            return cf
    raise NumericalError("the incomplete beta continued fraction did not converge")


def _log_cap(d, r, c, log_a, log_b, log_w, log_s, log_x, log_v):
    """log of the shell's share in the ball, 1/2 I_z((d-1)/2, 1/2), or 1 minus it where mu < 0:
    on s = a + w x, z = 1 - mu^2 = x v (s + a)(s + b) (min(R, c)/(c s))^2 and 1 - mu =
    v (s + a)/s for R > c, x v (w/s)(R/c) else, so nothing cancels."""
    log_ra, log_ratio = np.log1p(np.exp(log_a - log_s)), np.log(np.minimum(r, c)) - math.log(c)
    log_z = log_x + log_v + log_ra + np.log1p(np.exp(log_b - log_s)) + 2.0 * log_ratio
    mu = -np.expm1(np.where(r > c, log_v + log_ra, log_x + log_v + log_w - log_s + log_ratio))
    p = 0.5 * (d - 1)
    swap = log_z > math.log((p + 1.0) / (p + 2.5))  # I_z(p, 1/2) = 1 - I_(mu^2)(1/2, p) there
    log_mu_sq = np.log(np.maximum(mu * mu, sys.float_info.min))  # mu = 0: I_0(1/2, p) = 0
    first, log_y = np.where(swap, 0.5, p), np.where(swap, log_mu_sq, log_z)
    log_i = (first * log_y + (p + 0.5 - first) * np.where(swap, log_z, log_mu_sq) - np.log(first)
             + _log_beta_ratio(p, 0.5) + np.log(_beta_cf(first, p + 0.5 - first, np.exp(log_y))))
    log_i[swap] = np.log1p(-np.exp(log_i[swap]))
    return np.where(mu < 0, np.log1p(-0.5 * np.exp(log_i)), log_i - math.log(2.0))


def _ball_log_masses(d, radii, c, m=5):
    """log P(||theta - theta0|| <= R) for each R of the array ``radii``, ||theta0|| = c: the rule
    ``_rule(m)`` in s of the density of ||theta|| over the shells s < a = R - c (past a = sqrt(d),
    one minus it past a, on s = a/x), and of it times ``_log_cap`` over |R - c| < s < R + c, rerun
    at h/2 where the sums at h and 2h differ by 1e-7 relative; NumericalError past h = 1/256."""
    if not float(radii.max()) + c < math.inf:  # a Python sum: inf with no overflow warning
        raise NumericalError("the ball's radius or centre leaves the float range")
    nodes = _rule(m)  # |t| <= 4; log v is row 6, log(dx / sqrt(x)) row 7
    log_x, log_dx = np.log(nodes[2]), nodes[7] + 0.5 * np.log(nodes[2])
    full, cross = radii > c, (radii > 0) & (c > 0)
    log_a = np.log(radii[full] - c)[:, None]
    flip = np.where(log_a > 0.5 * math.log(d), -1.0, 1.0)  # s = a x, or a/x past a = sqrt(d) (~ the median)
    log_s, log_ds = [log_a + flip * log_x], [log_a + log_dx + (flip - 1.0) * log_x]
    if cross.any():
        r = radii[cross, None]
        log_w = np.log(2.0 * np.minimum(r, c))
        log_a = np.log(abs(r - c), out=np.full_like(r, -math.inf), where=r != c)  # a = 0 where R = c
        log_s.append(np.logaddexp(log_a, log_w + log_x))  # s = a + w x, also below the float range
        cap = _log_cap(d, r, c, log_a, np.log(r + c), log_w, log_s[1], log_x, nodes[6]) if d > 1 else -math.log(2.0)
        log_ds.append(log_w + log_dx + cap)  # at d = 1 one of the shell's two points is inside
    # log S_(d-1) s^(d-1) f_d(s) = log(e^u E_nu(u)) + log S_(d-1) K_d, u = s^2/2 (inf past the float range)
    log_u = 2.0 * np.concatenate(log_s) - math.log(2.0)
    u = np.exp(log_u, out=np.full_like(log_u, math.inf), where=log_u < math.log(sys.float_info.max))
    log_f = _log_scaled_expint(d, u, log_u) + np.concatenate(log_ds)
    log_f += 0.5 * math.log(2.0 / math.pi) + _log_beta_ratio(0.5 * d, 0.5)  # no lgamma cancels at a large d
    peak = np.maximum(log_f.max(axis=1), -1e300)  # a row of -inf is a part of mass 0
    sums = np.exp(log_f - peak[:, None]) @ nodes[[0, 3]].T
    if np.any(abs(sums[:, 0] - sums[:, 1]) > 1e-7 * sums[:, 0]):  # rare: a crossing range wide in log s
        if m == 8:
            raise NumericalError(f"the shell rule is not resolved at d = {d}, radii {radii.tolist()}")
        return _ball_log_masses(d, radii, c, m + 1)
    log_part = peak + np.log(sums[:, 0], out=np.full_like(peak, -math.inf), where=sums[:, 0] > 0)
    whole, log_mass = log_part[: len(flip)], np.full_like(radii, -math.inf)
    log_mass[full] = np.where(flip[:, 0] < 0, np.log1p(-np.exp(whole)), whole)  # one minus the mass past a
    log_mass[cross] = np.logaddexp(log_mass[cross], log_part[len(flip) :])
    return log_mass


def _ball_masses(d, radii, c):
    """The masses of ``_ball_log_masses``; NumericalError where one is not a normal float."""
    masses = np.exp(_ball_log_masses(d, np.array(radii, dtype=float), c))
    if not masses.min() >= sys.float_info.min:
        raise NumericalError(f"the ball's prior mass underflows (d = {d}, radius = {radii[masses.argmin()]:.3g})")
    return masses.tolist()


def origin_ball_mass(d, radius):
    """P(||theta|| <= radius) under the standard prior: 1.0 at radius inf, NumericalError below the normal range."""
    d = _check_dimension(d)
    if isinstance(radius, numbers.Real) and radius == math.inf:
        return 1.0
    return _ball_masses(d, [_check_real(radius, "radius")], 0.0)[0]


def kl_ball_prior_mass(scenario: RiskScenario, n):
    """Prior mass of the KL ball of size 1/n; NumericalError where it is not a normal float."""
    return _ball_masses(scenario.d, [kl_ball_radius(scenario, n)], math.hypot(*scenario.theta0))[0]


def _masses_and_bounds(scenario: RiskScenario, n_grid):
    """The KL-ball masses M over n_grid, 0.0 or subnormal below the normal range, the bounds
    (1 - log M)/n and the normalized bounds (1 - log M) - c log(n)/2, c = d off the origin and
    1 at it, from one ``_ball_log_masses`` call; NumericalError where a log M is not finite."""
    radii = np.array([kl_ball_radius(scenario, n) for n in n_grid])
    log_masses = _ball_log_masses(scenario.d, radii, math.hypot(*scenario.theta0))
    if not np.isfinite(log_masses).all():
        raise NumericalError(f"the ball's log prior mass is not finite (d = {scenario.d}, radii {radii.tolist()})")
    coef = scenario.d if any(scenario.theta0) else 1.0
    pairs = [(1.0 - v, n) for v, n in zip(log_masses.tolist(), n_grid)]  # (1 - log M, n)
    return np.exp(log_masses).tolist(), [t / n for t, n in pairs], [t - coef * math.log(n) / 2.0 for t, n in pairs]


def risk_upper_bound(scenario: RiskScenario, n):
    """Information-risk bound: 1/n - log(ball mass)/n, from the log mass."""
    return _masses_and_bounds(scenario, [n])[1][0]


# ---------------------------------------------------------------------------
# Monte Carlo Cesaro-average risk
# ---------------------------------------------------------------------------


@dataclass
class McRisk:
    """Monte Carlo estimate with its standard error."""

    estimate: float
    std_error: float
    reps: int
    per_rep: np.ndarray = field(repr=False, default=None)


def _log_ratio(w, shift, b, d):
    """log[prod p(y_i | theta0) / m(y)] at each row w = sqrt(n) (ybar - theta0)/sigma ~ N(0, I).

    Both share the within-sample sum of squares and (2 pi sigma^2)^(-nd/2); m = K (2/pi)
    int w / (2 sqrt(b)), the mixture integral at a = ||shift + w||^2/2, b = n/sigma^2.
    """
    a = 0.5 * np.square(shift + w).sum(axis=1)
    log_int = np.array([_mixture_moments(ai, b, d)[0] for ai in a.tolist()])
    return math.log(math.pi * math.sqrt(b)) - 0.5 * np.square(w).sum(axis=1) - log_int


def cesaro_risk_mc(scenario: RiskScenario, n, reps, seed):
    """Monte Carlo Cesaro-average risk: (1/n) E log[prod p(y_i|theta0) / m(y)].

    The log ratio depends on the data only through ybar, so each replication
    draws the d normals of ``_log_ratio``'s w, not n x d observations.
    """
    n, reps = _check_whole(n, "n", 2), _check_whole(reps, "reps", 2)
    b = n / scenario.sigma / scenario.sigma
    if not np.finfo(float).tiny <= b < math.inf:
        raise NumericalError(f"n / sigma^2 is not a normal float (sigma = {scenario.sigma:.3g})")
    with np.errstate(over="ignore"):  # an a past the float range is inf: the kernel refuses it
        shift = math.sqrt(b) * np.asarray(scenario.theta0 or 0.0)
        w = make_rng(seed).standard_normal((reps, scenario.d))
        vals = _log_ratio(w, shift, b, scenario.d) / n
    return McRisk(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(reps)), reps, vals)
