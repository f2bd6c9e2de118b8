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
from .errors import DomainError, NumericalError, _check_integer, _check_real, _check_whole
from .posterior import _NODES, _V, _X, _log_weight, _mixture_moments
# adaptive_quad stays importable here: perfbench/spans.py patches this name
from .quadrature import adaptive_quad  # noqa: F401
from .rng import make_rng

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
        _check_integer(self.d, "dimension", 1)
        _check_real(self.sigma, "sigma")
        try:
            theta0, n_grid = tuple(self.theta0) or (0.0,) * self.d, tuple(self.n_grid)
        except TypeError:
            raise DomainError("theta0 and n_grid must be sequences") from None
        t0 = tuple(_check_real(v, "theta0", -math.inf) for v in theta0)
        if len(t0) != self.d:
            raise DomainError("theta0 must be d finite values")
        object.__setattr__(self, "theta0", t0)
        object.__setattr__(self, "n_grid", tuple(_check_whole(n, "n", 2) for n in n_grid))


def kl_ball_radius(scenario: RiskScenario, n):
    """Euclidean radius of the KL ball of size 1/n."""
    return scenario.sigma * math.sqrt(2.0 / _check_whole(n, "n", 2))


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


_X0, _V0 = _X[0].item(), _V[0].item()  # the first node, as Python floats


def _ball_mass(d, radius, center_sq):
    """Prior mass of the ball of this radius around a point of squared norm center_sq.

    One sum over all 1,025 nodes (h = 1/128), which also resolves the CDF's
    second step, at lam ~ the sphere's gap from the pole, when that gap is small.
    """
    span = radius * radius + center_sq
    b = d / span if span > 0 else math.inf  # puts the CDF's step mid-rule
    if not 0.0 < b < math.inf:
        raise NumericalError("the ball's radius or centre leaves the float range")
    # 1/lam^2 over the nodes is largest at the first; past the float range there,
    # the radius is below the reach that the check at the end guards
    if not b * _V0 / _X0 < math.inf:
        raise NumericalError(f"radius {radius:.3g} is past the reach of the fixed nodes")
    x, nc = np.outer((radius * radius, center_sq), (d / span) * _V / _X)  # over lam^2
    cdf = _chi2_cdf(x, d, nc)
    mass = float(np.exp(_log_weight(_NODES, b, 0)) @ cdf) / (math.pi * math.sqrt(b))
    if not mass >= np.finfo(float).tiny:
        raise NumericalError(f"the ball's prior mass underflows (d = {d}, radius = {radius:.3g})")
    # the first node is lam = 2.4e-19 R/sqrt(d); half-Cauchy weight (2/pi) lam lies below
    if 2.0 / math.pi * math.sqrt(_X0 / (b * _V0)) * cdf[0] > 1e-12 * mass:
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
        shift = math.sqrt(b) * np.asarray(scenario.theta0)
        w = make_rng(seed).standard_normal((reps, scenario.d))
        vals = _log_ratio(w, shift, b, scenario.d) / n
    return McRisk(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(reps)), reps, vals)
