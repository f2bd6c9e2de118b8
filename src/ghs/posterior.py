"""Posterior quantities for the normal-observation model with a
grouped-horseshoe prior, plus the simpler two-scale side model used for
thresholding.

Observation model: y | theta ~ N(theta, I_d), theta/tau standard grouped
horseshoe.  Every quantity is a moment of one half-Cauchy scale-mixture
integral.  In the bounded variable x = lambda^2 b / (1 + lambda^2 b), with
v = 1 - x, its weight is

    w(x) = x^(-1/2) v^((d-1)/2) / (v + x/b) e^(-a v),

and with a = ||y||^2 / 2, b = tau^2:

* the marginal density is p(y) = K_d C with C = int w / (2 sqrt(b)),
* the score is grad log p(y) = -(D/C) y with D/C = int w v / int w, so
  E(theta|y) = (1 - D/C) y,
* the side-model shrinkage weight is int w x / int w.

``_mixture_moments`` evaluates all three on one fixed set of tanh-sinh nodes
(Takahasi & Mori 1974), built once at import, with no switch on tau.  log x
and log v are computed directly at every node and the sum is max-shifted in
log space, so nothing underflows or cancels.  The rule runs on two nested
levels.  It first sums every 4th node (257 nodes, step h = 1/32) and, from
the same products, every 8th (h = 1/16); halving h roughly squares the error
(Bailey, Jeyabalan & Li 2005), so when all three moments agree between the
two within 1e-7 relative the h = 1/32 values are kept.  Otherwise, for a
peak narrower than the coarse step, all 1,025 nodes (h = 1/128) are summed.
The KL-ball masses of ``risk`` read the d = 0 weights and always sum all nodes.

The part of log(w dx) that depends on the model (b, d) only is cached per
model, and beside it a contiguous copy of its h = 1/32 nodes; a b too small
or, at d = 1, too large for the nodes is refused there, at no cost to a call
whose model is cached.  At 257 nodes a call costs its NumPy calls, not its
flops, so a call that keeps h = 1/32 makes eight: the shifted log-weights (a
product and an add in place), their peak (``argmax`` and an index, under
half the cost of a max reduce), the shift and exp in place, one product for
the six level sums and ``tolist``; the level tests are plain Python.
``_check_vector`` adds one for a float64 array y, the ``vdot`` of ||y||^2,
and ``posterior_mean`` two, a product and an add in place.  The
lambda-space adaptive quadrature is kept as an oracle; the Phi1 closed form
lives with the tests.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionError, DomainError, NumericalError, _check_array, _check_integer, _check_real
)
from .quadrature import adaptive_quad
# log_kummer_1f1 and log_phi1 stay importable here: perfbench/spans.py patches these names
from .specfun import log_kummer_1f1, log_phi1  # noqa: F401

__all__ = [
    "PosteriorModel",
    "SideModel",
    "marginal_log_density",
    "marginal_log_density_quad",
    "score",
    "posterior_mean",
    "posterior_mean_mixture_oracle",
    "side_model_shrinkage",
]


@dataclass(frozen=True)
class PosteriorModel:
    """Dimension and prior scale of the unit-noise observation model."""

    d: int
    tau: float = 1.0

    def __post_init__(self):
        _check_integer(self.d, "dimension", 1)
        _normal_square(self.tau, "tau")


@dataclass(frozen=True)
class SideModel:
    """Two fixed scales: observation noise tau1, prior scale multiplier tau2."""

    d: int
    tau1: float
    tau2: float

    def __post_init__(self):
        _check_integer(self.d, "dimension", 1)
        tau1 = _normal_square(self.tau1, "tau1")
        _normal_square(_check_real(self.tau2, "tau2") / tau1, "tau2 / tau1")


def _normal_square(t, name):
    """t as a float > 0 with t^2 a finite normal float: the kernel divides by
    and takes logs of it."""
    t = _check_real(t, name)
    if not sys.float_info.min <= t * t < math.inf:
        raise DomainError(f"{name}^2 must be a finite normal float, got {t!r}")
    return t


def _check_vector(y, d):
    """y as a float vector of length d, and its squared norm."""
    y = _check_array(y, "y")
    if y.shape != (d,):
        raise DimensionError(f"expected a vector of length {d}, got shape {y.shape}")
    yy = float(np.vdot(y, y))  # dot's bits; unlike dot, no overflow warning before the check
    if not math.isfinite(yy):
        raise DomainError("y must be finite, with ||y||^2 below the float range")
    return y, yy


# ---------------------------------------------------------------------------
# The mixture kernel
# ---------------------------------------------------------------------------


def _tanh_sinh_nodes(h=1.0 / 128, t_max=4.0):
    """log x, log v and log dx of the trapezoid rule in t, x = (1 + tanh(pi/2 sinh t))/2.

    |t| <= 4 reaches x and v down to 5e-38.  h = 1/128 resolves the peak
    of the weight at v ~ (d+1)/(2a), whose width in log v is sqrt(2/(d+1)):
    over tau in [1e-3, 1e3], ||y|| <= 1e4 and d <= 100 the moments agree
    with an mpmath reference to 1e-10 (1e-8 at the corners).  Past that the
    peak narrows below the step; at d = 100, ||y|| = 1e6, D/C is off by
    about 1e-5 relative.  The levels are nested: every 4th node is the
    h = 1/32 rule and every 8th the h = 1/16 rule, which ``_mixture_moments``
    tries first and compares.
    """
    t = np.arange(-t_max, t_max + 0.5 * h, h)
    u = 0.5 * math.pi * np.sinh(t)
    log_x = -np.logaddexp(0.0, -2.0 * u)
    log_v = -np.logaddexp(0.0, 2.0 * u)
    # dx/dt = pi cosh(t) x v
    return log_x, log_v, math.log(h * math.pi) + np.log(np.cosh(t)) + log_x + log_v


_LOG_X, _LOG_V, _LOG_DX = _tanh_sinh_nodes()
_X, _V = np.exp(_LOG_X), np.exp(_LOG_V)
# rows: 1, v, x; one product gives int w, int w v and int w x
_MOMENTS = np.stack([np.ones_like(_V), _V, _X])
# The coarse level reads every 4th node.  Rows 0-2 are the moments at h = 1/32,
# rows 3-5 at h = 1/16 from every other coarse node: the weights carry the
# step factors 4 and 8 of the h = 1/128 dx.
_COARSE = slice(None, None, 4)
_V_COARSE = _V[_COARSE]
_LEVELS = np.concatenate([4.0 * _MOMENTS[:, _COARSE], 8.0 * _MOMENTS[:, _COARSE]])
_LEVELS[3:, 1::2] = 0.0
_LEVEL_RTOL = 1e-7  # h = 1/16 this close means h = 1/32 is near 1e-14
_A_REACH = 1e-12 / _V[-1].item()  # at d = 1, a v_last is the share of mass past the last node


@lru_cache(maxsize=256)
def _log_weight(b, d):
    """log(w dx) at the nodes without the e^(-a v) factor; read-only.

    It depends on the model only, so repeated calls for one model share it.
    """
    # log(v + x/b) = log(b v + x) - log b: a sum of positives, no cancellation
    log_w = (
        _LOG_DX
        - 0.5 * _LOG_X
        + (0.5 * (d - 1)) * _LOG_V
        - np.log(b * _V + _X)
        + math.log(b)
    )
    log_w.flags.writeable = False
    return log_w


@lru_cache(maxsize=256)
def _coarse_log_weight(b, d):
    """The h = 1/32 nodes of ``_log_weight(b, d)``, as a contiguous read-only copy.

    NumericalError for a b whose weight leaves the nodes, which reach x and v
    down to 5.7e-38; the check runs when a model is first cached, so a kept
    call pays nothing for it.  For a tiny b the mass sits near x ~ b, and
    about 1.3e-19 / sqrt(b) of it lies below the first node: 4e-11 at
    b = 1e-17.  At d = 1 it spreads down to v ~ 1/b, and at b = 1e28 the
    share below the last node is 2e-11 for ||y|| up to 1e9 (against mpmath).
    At d >= 2 the factor v^((d-1)/2) keeps it below 1e-10 for ||y|| up to 1e8.
    """
    if not (1e-17 <= b and (d > 1 or b <= 1e28)):
        raise NumericalError(f"tau^2 = {b:.3g} puts the weight past the reach of the fixed nodes")
    log_w = _log_weight(b, d)[_COARSE].copy()
    log_w.flags.writeable = False
    return log_w


def _mixture_moments_fine(a, b, d):
    """The moments below summed over all 1,025 nodes (h = 1/128)."""
    log_f = _log_weight(b, d) - a * _V
    peak = float(log_f[log_f.argmax()])
    total, int_v, int_x = (_MOMENTS @ np.exp(log_f - peak)).tolist()
    return peak + math.log(total), int_v / total, int_x / total


def _mixture_moments(a, b, d):
    """(log int w, int w v / int w, int w x / int w) for the weight w above.

    The h = 1/32 sums when they agree with h = 1/16, else all nodes; eight
    NumPy calls when h = 1/32 is kept.  The peak, v ~ (d+1)/(2a), nears the last
    node as a grows; past _A_REACH (||y|| = 5.9e12 at tau = 1), NumericalError,
    as for a b past the reach of ``_coarse_log_weight``.
    """
    if not a < _A_REACH:
        raise NumericalError(f"a = {a:.3g} puts the peak past the reach of the fixed nodes")
    # V (-a) + c is c - a V bit for bit; log_f holds no NaN, so argmax finds the max
    log_f = _V_COARSE * -a
    log_f += _coarse_log_weight(b, d)
    peak = float(log_f[log_f.argmax()])
    log_f -= peak
    total, int_v, int_x, half_1, half_v, half_x = _LEVELS.dot(np.exp(log_f, log_f)).tolist()
    # each h = 1/32 sum within _LEVEL_RTOL of its h = 1/16 sum, and not 0
    if not (
        abs(total - half_1) < _LEVEL_RTOL * total
        and abs(int_v - half_v) < _LEVEL_RTOL * int_v
        and abs(int_x - half_x) < _LEVEL_RTOL * int_x
    ):
        return _mixture_moments_fine(a, b, d)
    return peak + math.log(total), int_v / total, int_x / total


def marginal_log_density(model: PosteriorModel, y):
    """log p(y) under the observation model."""
    _, yy = _check_vector(y, model.d)
    d = model.d
    log_int = _mixture_moments(0.5 * yy, model.tau**2, d)[0]
    return (
        -0.5 * ((d - 2) * math.log(2.0) + (d + 2) * math.log(math.pi))
        + log_int
        - math.log(2.0 * model.tau)
    )


def score(model: PosteriorModel, y):
    """Gradient of log p(y); vanishes at the origin and in the far tail."""
    y, yy = _check_vector(y, model.d)
    return -_mixture_moments(0.5 * yy, model.tau**2, model.d)[1] * y


def posterior_mean(model: PosteriorModel, y):
    """E(theta | y) = y + grad log p(y) = (1 - D/C) y."""
    y, yy = _check_vector(y, model.d)
    mean = y * -_mixture_moments(0.5 * yy, model.tau**2, model.d)[1]
    mean += y  # in place; y + (-dc y) rounds as y - dc y
    return mean


# ---------------------------------------------------------------------------
# Quadrature parameterizations of the mixture integrals
# ---------------------------------------------------------------------------


def _c_like_integral_lambda(a, b, d, power, x_moment=False):
    """int_0^inf e^(-a/q) q^(-power) / (1+l^2) dl with q = 1 + l^2 b, or with
    ``x_moment`` the same integral times x = l^2 b / q."""

    def f(lam):
        q = 1.0 + lam * lam * b
        value = math.exp(-a / q - power * math.log(q)) / (1.0 + lam * lam)
        return value * (lam * lam * b) / q if x_moment else value

    split = 1.0 + math.sqrt(max(a, 1.0) / b)
    total = adaptive_quad(f, 0.0, split) + adaptive_quad(f, split, np.inf)
    if not total > 0:
        raise NumericalError(f"lambda-space integral underflows (a={a}, b={b}, d={d})")
    return total


def marginal_log_density_quad(model: PosteriorModel, y):
    """Quadrature oracle for log p(y) (lambda-space mixture integral)."""
    _, yy = _check_vector(y, model.d)
    d = model.d
    a = 0.5 * yy
    c_val = _c_like_integral_lambda(a, model.tau**2, d, 0.5 * d)
    return float(
        -0.5 * ((d - 2) * math.log(2.0) + (d + 2) * math.log(math.pi))
        + math.log(c_val)
    )


def posterior_mean_mixture_oracle(model: PosteriorModel, y):
    """E(theta|y) = (1 - D/C) y with C, D computed by quadrature (oracle)."""
    y, yy = _check_vector(y, model.d)
    a = 0.5 * yy
    if a == 0.0:
        return np.zeros(model.d)
    b, d = model.tau**2, model.d
    # C has exponent d/2 on (1 + lambda^2 b), D has d/2 + 1
    c_val = _c_like_integral_lambda(a, b, d, 0.5 * d)
    d_val = _c_like_integral_lambda(a, b, d, 0.5 * d + 1.0)
    return (1.0 - d_val / c_val) * y


# ---------------------------------------------------------------------------
# Side model (Result-5 style shrinkage coefficient)
# ---------------------------------------------------------------------------


def side_model_shrinkage(model: SideModel, y, method="x"):
    """Posterior shrinkage weight w(y) in (0, 1) with E(psi|y) = w(y) y.

    ``method`` "x" (default) takes the weight from the mixture kernel;
    "lambda" integrates over the raw local scale by adaptive quadrature
    and serves as its cross-check.
    """
    _, yy = _check_vector(y, model.d)
    a = yy / (2.0 * model.tau1**2)
    if not math.isfinite(a):
        raise DomainError("||y||^2 / (2 tau1^2) leaves the float range")
    b = (model.tau2 / model.tau1) ** 2
    if method == "x":
        w = _mixture_moments(a, b, model.d)[2]
    elif method == "lambda":
        # int w x / int w, the numerator taken directly: C - D cancels when w is small
        den = _c_like_integral_lambda(a, b, model.d, 0.5 * model.d)
        w = _c_like_integral_lambda(a, b, model.d, 0.5 * model.d, x_moment=True) / den
    else:
        raise DomainError(f"unknown method {method!r}")
    return min(max(w, 0.0), 1.0)

