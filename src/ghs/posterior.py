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

``_mixture_moments`` evaluates all three with one trapezoid rule in t,
x = (1 + tanh(pi/2 sinh t))/2 (tanh-sinh, Takahasi & Mori 1974), with no
switch on tau.  log x and log v are computed directly at every node and the
sum is max-shifted in log space, so nothing underflows or cancels.  The rule
always checks itself on two nested levels: halving the step h roughly
squares the error (Bailey, Jeyabalan & Li 2005), so when all three moments
at h agree with those at 2h within 1e-7 relative, the step-h values are
kept.  It first runs on fixed nodes: |t| <= 4 at h = 1/32 (257 nodes),
checked against every other node.  A call whose levels disagree there, for
a peak narrower than the step or one past the last node, runs it on a window
in t that holds the weight, at a step that resolves its peak: the window is
placed from the peak v* = (d+1)/(2a) when v* is small, down past v ~ 1/b
where b v* > 1, and otherwise read from the fixed nodes' weights.  If that
check fails too, NumericalError; an a past the float range is one too.  So
||y|| is bounded only by ||y||^2 being finite.

The part of log(w dx) that depends on the model (b, d) only is cached per
model at the h = 1/32 nodes; a b too small or, at d = 1, too large for the
nodes is refused there, at no cost to a call whose model is cached.  Every
other rule comes from one cached builder, ``_rule``.  At 257 nodes a call
costs its NumPy calls, not its flops, so a call that keeps h = 1/32 makes
eight: the shifted log-weights (a product and an add in place), their peak
(``argmax`` and an index, under half the cost of a max reduce), the shift
and exp in place, one product for the six level sums and ``tolist``; the
level tests are plain Python.  A window adds about a dozen, on its own
nodes.  ``_check_vector`` adds one for a float64 array y, the ``vdot`` of
||y||^2, and ``posterior_mean`` two, a product and an add in place.  The
lambda-space adaptive quadrature is kept as an oracle; the Phi1 closed form
lives with the tests.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionError, DomainError, NumericalError, _check_array, _check_dimension, _check_real
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
        _check_dimension(self.d)
        _normal_square(self.tau, "tau")


@dataclass(frozen=True)
class SideModel:
    """Two fixed scales: observation noise tau1, prior scale multiplier tau2."""

    d: int
    tau1: float
    tau2: float

    def __post_init__(self):
        _check_dimension(self.d)
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


def _tanh_sinh_nodes(t, h):
    """The trapezoid rule of step h in t at the points t, x = (1 + tanh(pi/2 sinh t))/2.

    Rows 0-2 are the moments' factors 1, v and x; rows 3-5 the same times 2 at
    every other node from the first and 0 between, for the sums at step 2h;
    row 6 is log v and row 7 log(dx / sqrt(x)), the part of log(w dx) that
    depends on no parameter.  log x and log v are computed directly; on
    |t| <= 4 x and v reach down to 5.7e-38.
    """
    u = 0.5 * math.pi * np.sinh(t)
    log_x = -np.logaddexp(0.0, -2.0 * u)
    log_v = -np.logaddexp(0.0, 2.0 * u)
    # dx/dt = pi cosh(t) x v
    log_dx = math.log(h * math.pi) + np.log(np.cosh(t)) + log_x + log_v
    moments = np.stack([np.ones_like(t), np.exp(log_v), np.exp(log_x)])
    halves = 2.0 * moments
    halves[:, 1::2] = 0.0
    nodes = np.concatenate([moments, halves, [log_v, log_dx - 0.5 * log_x]])
    nodes.flags.writeable = False  # shared: the coarse level, and each cached rule
    return nodes


@lru_cache(maxsize=16)
def _rule(m, lo=-4.0, hi=4.0):
    """``_tanh_sinh_nodes`` of step 2^-m on t in [lo, hi], built on first use: m = 7 on |t| <= 4
    for the cut windows, m >= 5 on [0, 6.25], where v reaches e^-800, for the placed ones (13 MB
    at the finest step, 2^-15, at d = 100 with ||y||^2 near the float range, and 26 MB for all
    the steps from 2^-5 to it), and m = 5 to 8 on |t| <= 4 for ``risk``'s KL-ball mass."""
    h = 2.0**-m
    return _tanh_sinh_nodes(np.arange(lo, hi + 0.5 * h, h), h)


# The coarse level, h = 1/32 on |t| <= 4: every 4th node of _rule(7), whose log dx it carries;
# _LEVELS holds the step factor 4, its rows 0-2 the moments at h = 1/32 and 3-5 at h = 1/16.
_COARSE_NODES = _tanh_sinh_nodes(np.arange(-4.0, 4.0 + 0.5 / 32, 1.0 / 32), 1.0 / 128)
_V_COARSE = _COARSE_NODES[1]
_LEVELS = 4.0 * _COARSE_NODES[:6]
_LEVEL_RTOL = 1e-7  # h = 1/16 this close means h = 1/32 is near 1e-14


def _log_weight(nodes, b, d):
    """log(w dx) at the nodes, without the e^(-a v) factor."""
    # log(v + x/b) = log(b v + x) - log b: a sum of positives, no cancellation
    return nodes[7] + (0.5 * (d - 1)) * nodes[6] - np.log(b * nodes[1] + nodes[2]) + math.log(b)


@lru_cache(maxsize=256)
def _coarse_log_weight(b, d):
    """``_log_weight`` at the coarse level's nodes, read-only.

    NumericalError for a b whose weight leaves the nodes, which reach x and v
    down to 5.7e-38; the check runs when a model is first cached, so a kept
    call pays nothing for it.  For a tiny b the mass sits near x ~ b, and
    about 1.3e-19 / sqrt(b) of it lies below the first node: 4e-11 at
    b = 1e-17.  At d = 1 it spreads down to v ~ 1/b, and at b = 1e28 the
    share below the last node is 2e-11 for ||y|| up to 1e9 (against mpmath).
    At d >= 2 the window of ``_window_nodes`` follows it past the last node.
    """
    if not (1e-17 <= b and (d > 1 or b <= 1e28)):
        raise NumericalError(f"tau^2 = {b:.3g} puts the weight past the reach of the fixed nodes")
    log_w = _log_weight(_COARSE_NODES, b, d)
    log_w.flags.writeable = False
    return log_w


def _window_nodes(a, b, d, coarse, smallest):
    """Nodes over a window in t that holds the weight, at a step that resolves it.

    The weight's peak lies near v* = k/a, k = (d+1)/2.  When v* < 1e-3 the
    window is placed from it.  In s = log v the weight falls as e^(k s) below
    v* and under the pole scale v ~ 1/b, and as e^((k-1) s) between the two,
    so the window reaches down to e^-40 of the peak, past 1/b where b v* > 1.
    Its step 2^-m resolves the peak, sqrt(2/(d+1)) wide in s, and the bend
    at v ~ 1/b when that lies in the window.  Otherwise the window is read
    from ``coarse``, the coarse level's weights shifted to a peak of 1: the
    h = 1/128 nodes between the coarse nodes where they pass 1e-16 of the
    ``smallest`` of its three moment sums, so that each moment, the side
    weight where it is tiny at a tiny b too, loses under 1e-14 of itself.
    """
    k = 0.5 * (d + 1)
    if a < 1e3 * k:
        above = np.flatnonzero(coarse > 1e-16 * smallest)
        lo, hi = max(above[0] - 1, 0), min(above[-1] + 1, len(coarse) - 1)
        return _rule(7)[:, 4 * lo : 4 * hi + 1]
    s_star, s_pole = math.log(k / a), -math.log(b)
    s_lo = s_star - (40.0 + k) / k
    if s_star > s_pole:  # the peak moves to (k-1)/a, and the fall to e^-40 may pass 1/b
        over_pole = s_star + math.log((k - 1) / k) - (40.0 + k) / (k - 1) if d > 1 else -math.inf
        s_lo = max(over_pole, s_pole - 40.0 / k - 2.0)
    s_feature = min(s_star, max(s_pole, s_lo))
    # four steps across the peak of w v, 1/sqrt(k+1) wide in s, where |ds/dt| ~ hypot(pi, s)
    m = max(math.ceil(math.log2(4.0 * math.sqrt(k + 1.0) * math.hypot(math.pi, s_feature))), 5)
    # v ~ e^(-pi sinh t) for a small v, a little larger than the v at t: an edge
    # at most 4 % of v* off in v at the top, and further out at the bottom
    lo = math.floor(math.asinh(-(s_star + math.log(40.0)) / math.pi) * 2**m)
    hi = math.ceil(math.asinh(-s_lo / math.pi) * 2**m)
    # an even lo keeps the rule's 2h rows on the window's first node
    return _rule(m, 0.0, 6.25)[:, lo - lo % 2 : hi + 1]


def _mixture_moments(a, b, d):
    """(log int w, int w v / int w, int w x / int w) for the weight w above.

    The h = 1/32 sums when all three agree with h = 1/16 within _LEVEL_RTOL
    relative: eight NumPy calls.  Else the same rule runs on the nodes of
    ``_window_nodes``, and its sums at steps h and 2h must agree in the same
    way, or NumericalError.  An a past the float range is a NumericalError.
    """
    if not a < math.inf:
        raise NumericalError("a = ||y||^2 / 2 is past the float range")
    # V (-a) + c is c - a V bit for bit; log_f holds no NaN, so argmax finds the max
    log_f = _V_COARSE * -a
    log_f += _coarse_log_weight(b, d)
    levels = _LEVELS
    while True:  # the coarse level, then a window
        peak = float(log_f[log_f.argmax()])
        log_f -= peak
        total, int_v, int_x, half_1, half_v, half_x = levels.dot(np.exp(log_f, log_f)).tolist()
        # each step-h sum within _LEVEL_RTOL of its step-2h sum, and not 0
        if (
            abs(total - half_1) < _LEVEL_RTOL * total
            and abs(int_v - half_v) < _LEVEL_RTOL * int_v
            and abs(int_x - half_x) < _LEVEL_RTOL * int_x
        ):
            return peak + math.log(total), int_v / total, int_x / total
        if levels is not _LEVELS:
            raise NumericalError(f"the weight is not resolved at a = {a:.3g}, tau^2 = {b:.3g}, d = {d}")
        nodes = _window_nodes(a, b, d, log_f, min(total, int_v, int_x))
        log_f = _log_weight(nodes, b, d)
        # a v as e^(log v + log a): v may pass below the float range
        log_f -= np.exp(nodes[6] + (math.log(a) if a else -math.inf))
        levels = nodes[:6]


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

