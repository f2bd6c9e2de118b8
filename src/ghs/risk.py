"""Risk-bound machinery: prior mass of small KL balls, the information-risk
upper bound, and a Monte Carlo estimate of the cumulative-KL (Cesaro-average)
risk of the Bayes estimator.

For data y_1..y_n ~ N(theta, sigma^2 I_d) with a standard grouped-horseshoe
prior on theta, the KL ball of radius 1/n around the truth theta0 is the
Euclidean ball ||theta - theta0|| <= sigma sqrt(2/n), and

    R_n <= 1/n - (1/n) log P(prior mass of that ball).

Given the local scale lam, theta ~ N(0, lam^2 I), so the ball's mass is a
noncentral chi-square CDF.  Under lam^2 = x/(b v) its half-Cauchy mean is the
posterior module's mixture at d = 0: the exact mass at every theta0.
``distribution.origin_ball_mass`` remains its radial-quadrature test oracle.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# both stay importable here: perfbench/spans.py patches these names
from .distribution import origin_ball_mass, radial_log_density  # noqa: F401
from .errors import DomainError, NumericalError, ResourceError
from .posterior import _COARSE, _LEVELS, _V, _X, _levels_agree, _log_weight, _mixture_moments
# adaptive_quad stays importable here: perfbench/spans.py patches this name
from .quadrature import adaptive_quad  # noqa: F401
from .rng import make_rng, split_seed

__all__ = [
    "RiskScenario",
    "kl_ball_radius",
    "kl_ball_prior_mass",
    "risk_upper_bound",
    "cesaro_risk_mc",
]


@dataclass(frozen=True)
class RiskScenario:
    """True mean, noise scale and the sample sizes of interest."""

    d: int
    sigma: float = 1.0
    theta0: tuple = ()
    n_grid: tuple = ()

    def __post_init__(self):
        if not isinstance(self.d, (int, np.integer)) or self.d < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.d!r}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise DomainError("sigma must be positive and finite")
        t0 = tuple(float(v) for v in self.theta0) or tuple([0.0] * self.d)
        if len(t0) != self.d or not all(map(math.isfinite, t0)):
            raise DomainError("theta0 must be d finite values")
        object.__setattr__(self, "theta0", t0)
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if any(n < 2 for n in self.n_grid):
            raise DomainError("all sample sizes must be >= 2")


def kl_ball_radius(scenario: RiskScenario, n):
    """Euclidean radius of the KL ball of size 1/n."""
    if n < 2:
        raise DomainError("need n >= 2")
    return scenario.sigma * math.sqrt(2.0 / n)


def _chi2_cdf(x, d, nc):
    """P(chi2_d(nc) <= x) elementwise, with an explicit form for large nc."""
    from scipy import special as sp  # here, so that `import ghs` loads no SciPy

    big = nc > 1e9  # chndtr costs O(sqrt(nc)) (2 ms at 1e9) and gives NaN past ~1e11
    cdf = sp.chndtr(x, d, np.where(big, 0.0, nc))
    # There lam < ||theta0||/3e4 and ||theta - theta0||^2/lam^2 = (Z - sqrt(nc))^2 + W, W ~
    # chi2(d-1).  W at its mean: exact at d = 1, O(d/nc) off otherwise (5e-13 of the mass).
    xb, ncb = x[big] - (d - 1), nc[big]
    cdf[big] = sp.ndtr((xb - ncb) / (np.sqrt(np.maximum(xb, 0.0)) + np.sqrt(ncb)))
    return cdf


def _ball_mass(d, radius, center_sq):
    """Prior mass of the ball of this radius around a point of squared norm center_sq.

    Like the posterior moments, the sum runs on the h = 1/32 nodes first and
    on all nodes when it disagrees with h = 1/16, or when the sphere passes
    within 1% of its scale from the pole.  There the CDF has a second step,
    at lam ~ the gap, that the coarse nodes miss while the levels still agree:
    errors up to 6e-12, against at most 1e-14 for wider gaps (d <= 100).
    """
    span = radius * radius + center_sq
    b = d / span if span > 0 else math.inf  # puts the CDF's step mid-rule
    if not 0.0 < b < math.inf:
        raise NumericalError("the ball's radius or centre leaves the float range")
    x, nc = np.outer((radius * radius, center_sq), (d / span) * _V / _X)  # over lam^2
    weight = np.exp(_log_weight(b, 0))
    cdf = np.empty_like(weight)
    cdf[_COARSE] = _chi2_cdf(x[_COARSE], d, nc[_COARSE])
    # rows 0 and 3 of _LEVELS are the node weights of h = 1/32 and h = 1/16
    total, half = (_LEVELS[::3] @ (weight[_COARSE] * cdf[_COARSE])).tolist()
    norm = math.sqrt(center_sq)
    if not (abs(norm - radius) >= 0.01 * (norm + radius) and _levels_agree(total, half)):
        rest = np.ones(cdf.size, dtype=bool)
        rest[_COARSE] = False
        cdf[rest] = _chi2_cdf(x[rest], d, nc[rest])
        total = float(weight @ cdf)
    mass = total / (math.pi * math.sqrt(b))
    if not mass >= np.finfo(float).tiny:
        raise NumericalError(f"the ball's prior mass underflows (d = {d}, radius = {radius:.3g})")
    # the first node is lam = 2.4e-19 R/sqrt(d); half-Cauchy weight (2/pi) lam lies below
    if 2.0 / math.pi * math.sqrt(_X[0] / (b * _V[0])) * cdf[0] > 1e-12 * mass:
        raise NumericalError(f"radius {radius:.3g} is past the reach of the fixed nodes")
    return mass


def kl_ball_prior_mass(scenario: RiskScenario, n):
    """Prior mass of the KL ball of size 1/n, in (0, 1); NumericalError if out of reach."""
    norm = math.hypot(*scenario.theta0)  # norm * norm is inf, with no warning, past 1e154
    return _ball_mass(scenario.d, kl_ball_radius(scenario, n), norm * norm)


def risk_upper_bound(scenario: RiskScenario, n):
    """Information-risk bound: 1/n - log(ball mass)/n."""
    mass = kl_ball_prior_mass(scenario, n)
    return (1.0 - math.log(mass)) / n


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


def _log_prior_predictive(n, d, sigma, s_within, mean_sq):
    """log m(y_1..y_n): half-Cauchy mixture of the collapsed Gaussian.

    Integrating theta ~ N(0, lam^2 I) out of prod_i N(y_i; theta, sigma^2 I)
    leaves K e^(-a/q) q^(-d/2) with q = 1 + lam^2 b, a = n mean_sq/(2 sigma^2),
    b = n/sigma^2 and K = (2 pi sigma^2)^(-nd/2) e^(-s_within/(2 sigma^2)).
    The lam-mixture of that is K (2/pi) C(a, b, d), C being the posterior
    module's mixture integral int w / (2 sqrt(b)).
    """
    s2 = sigma * sigma
    b = n / s2
    return (
        -0.5 * n * d * math.log(2.0 * math.pi * s2)
        - 0.5 * s_within / s2
        + _mixture_moments(0.5 * n * mean_sq / s2, b, d)[0]
        - math.log(math.pi * math.sqrt(b))
    )


def cesaro_risk_mc(scenario: RiskScenario, n, reps, seed, target_se=None):
    """Monte Carlo Cesaro-average risk: (1/n) E log[prod p(y_i|theta0) / m(y)].

    The prior predictive m is the posterior module's mixture integral after
    collapsing theta analytically, so the only randomness is the data.
    Raises ResourceError if a requested standard error is not reached.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if reps < 2:
        raise DomainError("need reps >= 2")
    d, sigma = scenario.d, scenario.sigma
    theta0 = np.asarray(scenario.theta0)
    vals = np.empty(reps)
    for r in range(reps):
        rng = make_rng(split_seed(seed, r))
        y = theta0 + sigma * rng.standard_normal((n, d))
        ybar = y.mean(axis=0)
        s_within = float(np.sum((y - ybar) ** 2))
        mean_sq = float(ybar @ ybar)
        resid0 = float(np.sum((y - theta0) ** 2))
        log_true = -0.5 * n * d * math.log(2.0 * math.pi * sigma * sigma) - 0.5 * resid0 / (
            sigma * sigma
        )
        vals[r] = (log_true - _log_prior_predictive(n, d, sigma, s_within, mean_sq)) / n
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(reps))
    if target_se is not None and se > target_se:
        raise ResourceError(
            f"standard error {se:.3e} exceeds target {target_se:.3e} after {reps} reps"
        )
    return McRisk(est, se, reps, vals)
