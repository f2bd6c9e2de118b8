"""The grouped-horseshoe distribution: a d-variate scale mixture of normals
with one shared half-Cauchy local scale.

The density has the closed form

    p(x) = K_d * exp(r^2/2) E_((d+1)/2)(r^2/2) / r^(d-1),   r = ||x||,
    K_d  = Gamma((d+1)/2) / sqrt(2 pi^(d+2)),

evaluated through the exponentially scaled exponential integral so the
exp/E product never overflows.  The density has a pole at the origin for
every dimension; ``log_density`` returns +inf there by design.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError, DomainError, NumericalError, _check_array, _check_dimension, _check_real,
    _check_whole,
)
from .quadrature import adaptive_quad
from .rng import make_rng
# exp_scaled_gen_exp_integral stays importable here: perfbench/spans.py patches this name
from .specfun import exp_scaled_expint, exp_scaled_gen_exp_integral  # noqa: F401

__all__ = [
    "GhsDistribution",
    "log_density",
    "density",
    "radial_log_density",
    "sample_arrays",
    "sample_blocks",
    "density_quadrature_oracle",
]


@dataclass(frozen=True)
class GhsDistribution:
    """Dimension and scale of a grouped-horseshoe random vector."""

    d: int
    sigma_theta: float = 1.0

    def __post_init__(self):
        _check_dimension(self.d)
        _check_real(self.sigma_theta, "sigma_theta")


def _log_scaled_expint(d, u, log_u):
    """log(e^u E_nu(u)), nu = (d + 1)/2, at arrays ``u`` and ``log u``: -log u where u overflows,
    at d = 1 log(-gamma - log u) below u = 1e-20, where it is exact, else the kernel once per
    distinct u (a value depends on its u alone, and sorted u run faster even with no repeats)."""
    tail = np.isinf(u)
    small = u < 1e-20 if d == 1 else np.zeros_like(tail)
    mid = ~(tail | small)
    log_e = np.empty_like(u)
    distinct, inv = np.unique(u[mid], return_inverse=True)
    log_e[mid] = np.log(exp_scaled_expint(0.5 * (d + 1), distinct))[inv]
    log_e[tail] = -log_u[tail]
    log_e[small] = np.log(-np.euler_gamma - log_u[small])
    return log_e


def radial_log_density(d, r, sigma_theta=1.0):
    """log density at radius ``r = ||x||``: a float for a scalar ``r``, else
    an array of its shape; +inf at the origin (the pole), -inf at r = inf.

    exp(u) E_nu(u), u = r^2/2, is ``_log_scaled_expint``'s, with
    log u = 2 log r - log 2, so no digits are lost to over- or underflow.
    """
    d = _check_dimension(d)
    sigma_theta = _check_real(sigma_theta, "sigma_theta")
    r = _check_array(r, "radius")
    if not np.all(r >= 0):
        raise DomainError("radius must be a nonnegative number")
    with np.errstate(divide="ignore", over="ignore"):
        r, radius = r / sigma_theta, r
        log_r = np.log(r, out=np.empty_like(radius))
        u = 0.5 * r * r
        lost = ~(r >= np.finfo(float).tiny) | (r == math.inf)  # r/sigma lost its digits
        log_r[lost] = np.log(radius[lost]) - math.log(sigma_theta)
    log_e = _log_scaled_expint(d, u, 2.0 * log_r - math.log(2.0))
    power = (d - 1) * log_r if d > 1 else 0.0  # r^(d-1) = 1 at d = 1, also at r = inf
    log_k = math.lgamma(0.5 * (d + 1)) - 0.5 * (math.log(2.0) + (d + 2) * math.log(math.pi))  # log K_d
    val = log_k + log_e - power - d * math.log(sigma_theta)
    return val if val.ndim else float(val)


# below this norm the sum of squares left the normal range: digits lost, or 0
_NORM_UNDERFLOW = math.sqrt(np.finfo(float).tiny)


def _point_norms(x):
    """||x|| of one point or of each row, right for every finite point.

    The squares are summed left to right over the coordinates, for one point
    as for a stack, so a point and its row of a stack get the same bits (and
    ``ghs density --grid`` its radii from prefix sums).  The squares
    underflow for ||x|| < ~1.5e-154 and overflow above ~1.3e154.  Only those
    rows are recomputed, by hypot, which never squares; other rows keep the
    plain value.
    """
    with np.errstate(over="ignore", under="ignore"):
        s = x[..., 0] * x[..., 0]
        for i in range(1, x.shape[-1]):
            s += x[..., i] * x[..., i]
        r = np.asarray(np.sqrt(s))
        redo = (r < _NORM_UNDERFLOW) | (r == np.inf)
        if np.any(redo):  # inf where ||x|| itself is past the largest float
            r[redo] = np.hypot.reduce(x[redo], axis=-1, initial=0.0)
    return r


def log_density(dist: GhsDistribution, x):
    """log p(x) for one point (a float) or an (m, d) stack of points; +inf at the pole."""
    x = _check_array(x, "x")
    if x.ndim not in (1, 2) or x.shape[-1] != dist.d:
        raise DimensionError(f"expected points of length {dist.d}, got shape {x.shape}")
    return radial_log_density(dist.d, _point_norms(x), dist.sigma_theta)


def density(dist: GhsDistribution, x):
    """p(x), with the shapes of :func:`log_density`; +inf past the largest float."""
    return _exp_density(log_density(dist, x))


def _exp_density(ld):
    """e^ld, +inf past the largest float: the one rule of ``density`` and
    ``ghs density``, so a point's density is its stack row's bit for bit."""
    with np.errstate(over="ignore"):
        val = np.exp(ld)
    return val if np.ndim(val) else float(val)


def sample_blocks(dist: GhsDistribution, n, seed, block):
    """n mixture draws as successive ``(lam, x)`` array pairs of at most
    ``block`` rows: lam ~ half-Cauchy, x | lam ~ N(0, (sigma lam)^2 I).

    The half-Cauchy draw uses the inverse CDF lam = tan(pi U / 2).  All n
    uniforms come first in the seed's stream and the normals follow them, so
    a second copy of the stream, advanced past the n uniforms, feeds the
    normals: the draws are the same for every ``block``.  ``n`` and ``seed``
    are checked here, before the first block is asked for.
    """
    n, block = _check_whole(n, "n", 1), _check_whole(block, "block", 1)
    uniforms, normals = make_rng(seed), make_rng(seed)
    normals.bit_generator.advance(n)  # one 64-bit output per uniform

    def blocks():
        for lo in range(0, n, block):
            m = min(block, n - lo)
            lam = np.abs(np.tan(0.5 * math.pi * uniforms.random(m)))
            with np.errstate(over="ignore"):
                x = dist.sigma_theta * lam[:, None] * normals.standard_normal((m, dist.d))
            if not np.isfinite(x).all():
                raise NumericalError(f"a draw overflows at sigma_theta = {dist.sigma_theta:.3g}")
            yield lam, x

    return blocks()


def sample_arrays(dist: GhsDistribution, n, seed):
    """Arrays ``lam`` (n,) and ``x`` (n, d) of n draws: :func:`sample_blocks`
    as one block, so runs are exactly reproducible for a fixed seed."""
    (lam, xs), = sample_blocks(dist, n, seed, block=n)
    return lam, xs


def density_quadrature_oracle(d, x):
    """Mixture-integral oracle for the standard (unit scale) density.

    Integrates the normal/half-Cauchy mixture after the t = 1/lambda^2
    substitution, independently of the closed form.  Test use only.
    """
    x = np.asarray(x, dtype=float)
    r2 = float(x @ x) if x.ndim == 1 else float(x) ** 2
    if r2 == 0.0:
        raise DomainError("oracle diverges at the origin")
    d = int(d)
    u = 0.5 * r2
    nu = 0.5 * (d + 1)

    # (2 pi)^(-d/2) / pi * int_0^inf t^(nu-1) e^(-t u) / (1+t) dt, w = t u
    def f(w):
        if w <= 0.0:
            return 0.0
        return math.exp((nu - 1.0) * math.log(w) - w) / (u + w)

    cut = 10.0 + 2.0 * nu
    integral = adaptive_quad(f, 0.0, cut) + adaptive_quad(f, cut, np.inf)
    log_val = (
        -0.5 * d * math.log(2.0 * math.pi)
        - math.log(math.pi)
        + (1.0 - nu) * math.log(u)
        + math.log(integral)
    )
    return math.exp(log_val)
