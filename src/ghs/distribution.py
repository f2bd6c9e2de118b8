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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError, DomainError, _check_array, _check_integer, _check_real, _check_whole
)
from .quadrature import adaptive_quad
from .rng import make_rng
from .specfun import exp_scaled_expint, exp_scaled_gen_exp_integral

__all__ = [
    "GhsDistribution",
    "log_density",
    "density",
    "radial_log_density",
    "sample_arrays",
    "sample_blocks",
    "density_quadrature_oracle",
    "origin_ball_mass",
]


@dataclass(frozen=True)
class GhsDistribution:
    """Dimension and scale of a grouped-horseshoe random vector."""

    d: int
    sigma_theta: float = 1.0

    def __post_init__(self):
        _check_integer(self.d, "dimension", 1)
        _check_real(self.sigma_theta, "sigma_theta")


def _log_norm_const(d):
    return math.lgamma(0.5 * (d + 1)) - 0.5 * (math.log(2.0) + (d + 2) * math.log(math.pi))


def radial_log_density(d, r, sigma_theta=1.0):
    """log density at radius ``r = ||x||``: a float for a scalar ``r``, else
    an array of its shape; +inf at the origin (the pole), -inf at r = inf.

    exp(u) E_nu(u), u = r^2/2, takes its tail form 1/u where u overflows
    and, at d = 1, its small-u form -gamma - log u, both with
    log u = 2 log r - log 2, so no digits are lost to over- or underflow.
    """
    d = _check_integer(d, "dimension", 1)
    sigma_theta = _check_real(sigma_theta, "sigma_theta")
    r = _check_array(r, "radius")
    if not np.all(r >= 0):
        raise DomainError("radius must be a nonnegative number")
    r = r / sigma_theta
    with np.errstate(divide="ignore", over="ignore"):
        log_r = np.log(r)
        u = 0.5 * r * r
    log_u = 2.0 * log_r - math.log(2.0)
    tail = np.isinf(u)
    small = u < 1e-20 if d == 1 else np.zeros_like(tail)  # -gamma - log u is exact there
    mid = ~(tail | small)
    log_e = np.empty_like(r)
    # once per distinct u: each value depends on its own u alone, and the
    # sorted values run faster than the unsorted ones even when none repeat
    distinct, inv = np.unique(u[mid], return_inverse=True)
    log_e[mid] = np.log(exp_scaled_expint(0.5 * (d + 1), distinct))[inv]
    log_e[tail] = -log_u[tail]
    log_e[small] = np.log(-np.euler_gamma - log_u[small])
    power = (d - 1) * log_r if d > 1 else 0.0  # r^(d-1) = 1 at d = 1, also at r = inf
    val = _log_norm_const(d) + log_e - power - d * math.log(sigma_theta)
    return val if val.ndim else float(val)


# below this norm the sum of squares left the normal range: digits lost, or 0
_NORM_UNDERFLOW = math.sqrt(np.finfo(float).tiny)


def _point_norms(x):
    """||x|| of one point or of each row, right for every finite point.

    The plain norm squares the entries, which underflows for
    ||x|| < ~1.5e-154 and overflows above ~1.3e154.  Only those rows are
    recomputed, by hypot, which never squares; other rows keep the plain value.
    """
    with np.errstate(over="ignore", under="ignore"):
        r = np.asarray(np.linalg.norm(x, axis=-1) if x.ndim == 2 else np.linalg.norm(x))
    redo = (r < _NORM_UNDERFLOW) | (r == np.inf)
    if np.any(redo):
        r[redo] = np.hypot.reduce(x[redo], axis=-1, initial=0.0)
    return r


def log_density(dist: GhsDistribution, x):
    """log p(x) for one point (a float) or an (m, d) stack of points; +inf at the pole."""
    x = _check_array(x, "x")
    if x.ndim not in (1, 2) or x.shape[-1] != dist.d:
        raise DimensionError(f"expected points of length {dist.d}, got shape {x.shape}")
    return radial_log_density(dist.d, _point_norms(x), dist.sigma_theta)


def density(dist: GhsDistribution, x):
    """p(x), with the shapes of :func:`log_density`."""
    ld = log_density(dist, x)
    return np.exp(ld) if np.ndim(ld) else math.exp(ld)


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
            yield lam, dist.sigma_theta * lam[:, None] * normals.standard_normal((m, dist.d))

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


def origin_ball_mass(d, radius):
    """P(||x|| <= radius) for the standard distribution, by radial quadrature.

    Hyperspherical reduction gives
        mass = [Gamma((d+1)/2) / (pi Gamma(d/2))]
               * int_0^(radius^2/2) u^(-1/2) e^u E_((d+1)/2)(u) du,
    evaluated after u = v^2 to remove the endpoint singularity.
    """
    d = _check_integer(d, "dimension", 1)
    if not (isinstance(radius, numbers.Real) and radius > 0):  # inf gives the whole mass
        raise DomainError(f"radius must be a real number > 0, got {radius!r}")
    nu = 0.5 * (d + 1)
    vmax = radius / math.sqrt(2.0)

    def f(v):
        if v <= 0.0:
            return 0.0
        return 2.0 * exp_scaled_gen_exp_integral(nu, v * v)

    lead = math.exp(math.lgamma(nu) - math.log(math.pi) - math.lgamma(0.5 * d))
    if vmax <= 2.0:
        integral = adaptive_quad(f, 0.0, vmax, rel_tol=1e-11)
    else:
        integral = adaptive_quad(f, 0.0, 2.0, rel_tol=1e-11) + adaptive_quad(
            f, 2.0, vmax, rel_tol=1e-11
        )
    return lead * integral
