"""Additive-model selection with horseshoe priors on linear coefficients and
grouped-horseshoe priors on spline-coefficient blocks.

Model:  y = 1 beta0 + X beta + sum_j Z_j u_j + eps,  eps ~ N(0, sigma_eps^2 I).

The first ``d_lin`` predictors are zero-or-linear candidates (no spline
block); the remaining ``d_nl`` are zero/linear/non-linear candidates and get
an orthogonalized spline block each.  All local and global scales carry
half-Cauchy priors, sampled by inverse-gamma parameter expansion so every
Gibbs conditional is conjugate.

Selection uses the posterior mean of the shrinkage factor
gamma = lambda^2 sigma^2 / (sigma_eps^2 + lambda^2 sigma^2) per coefficient
block: a block is declared zero when E(gamma | y) falls below the border
(1/2 by default, or a data-driven 2-means split of the observed statistics).
"""

import math
import sys
import warnings
from collections.abc import Sized
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateError,
    DimensionError,
    DomainError,
    LengthError,
    NumericalError,
    _check_array,
    _check_integer,
    _check_real,
)
from .files import csv_bytes, float_codes, write_csv_chunks
from .rng import make_rng

# SciPy is imported where it is called, so that importing ghs.gamsel or
# ghs.study costs no SciPy.  These names stay module attributes only for
# perfbench/spans.py, which patches them.
def __getattr__(name):
    if name in ("cho_factor", "cho_solve", "solve_triangular"):
        import scipy.linalg

        return getattr(scipy.linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Hyper",
    "AdditiveModelSpec",
    "Dataset",
    "GibbsChain",
    "ThresholdReport",
    "MisclassRate",
    "LABELS",
    "generate_data",
    "spline_basis",
    "build_design",
    "gibbs_sampler",
    "gamma_statistics",
    "classify",
    "kmeans_threshold",
    "misclassification_rate",
    "chain_to_csv",
]

LABELS = ("zero", "linear", "non-linear")

# build_design multiplies the orthonormal spline columns by this scale, which
# thereby sets the prior-to-noise balance of the u-blocks; see spline_basis
_BASIS_SCALE = 0.15


def _check_truth(truth, d_lin, d_nl):
    """``truth`` as a tuple, the default if it is empty; ConfigError unless it
    is a list or tuple of d_lin + d_nl labels in LABELS and no zero-or-linear
    candidate (the first ``d_lin``) carries a non-linear truth."""
    if not isinstance(truth, (list, tuple)):
        raise ConfigError(f"truth takes a list of labels, got {truth!r}")
    truth = tuple(truth) or _default_truth(d_lin, d_nl)
    if len(truth) != d_lin + d_nl:
        raise ConfigError(f"truth pattern has length {len(truth)}, expected {d_lin + d_nl}")
    if not all(isinstance(t, str) and t in LABELS for t in truth):
        raise ConfigError(f"labels must be in {LABELS}")
    if any(t == "non-linear" for t in truth[:d_lin]):
        raise ConfigError("zero-or-linear candidates cannot have a non-linear truth")
    return truth


def _default_truth(d_lin, d_nl):
    """Zero for every zero-or-linear candidate, then half linear / half
    non-linear across the d_nl candidates."""
    n_lin = d_nl // 2
    return ("zero",) * d_lin + ("linear",) * n_lin + ("non-linear",) * (d_nl - n_lin)


def _basis_sizes(basis_size, d_nl):
    """Spline-block sizes, one per non-linear candidate, each an integer from
    2 to sys.maxsize; one size for all is checked also when there are none."""
    if not np.iterable(basis_size):
        return (_check_integer(basis_size, "basis_size", 2, ConfigError, sys.maxsize),) * d_nl
    ks = tuple(basis_size)
    if len(ks) != d_nl:
        raise ConfigError("basis_size tuple must have one entry per d_nl candidate")
    return tuple(_check_integer(k, "basis_size", 2, ConfigError, sys.maxsize) for k in ks)


def _check_model(d_lin, d_nl, basis_size, hyper):
    """The model fields that AdditiveModelSpec and StudyConfig share; a count
    is at most sys.maxsize, the longest a tuple of labels or sizes can be.
    Returns the spline-coefficient count: one size shared by all d_nl blocks
    is checked once, with no tuple of d_nl sizes built."""
    _check_integer(d_lin, "d_lin", 0, ConfigError, sys.maxsize)
    d_nl = _check_integer(d_nl, "d_nl", 0, ConfigError, sys.maxsize)
    if np.iterable(basis_size):
        n_spline = sum(_basis_sizes(basis_size, d_nl))
    else:
        n_spline = d_nl * _basis_sizes(basis_size, 1)[0]
    if not isinstance(hyper, Hyper):
        raise ConfigError(f"hyper must be a Hyper, got {hyper!r}")
    return n_spline


@dataclass(frozen=True)
class Hyper:
    """Half-Cauchy hyperprior scales and the (proper) intercept prior sd.

    Each must be finite and above 1e-154, so that the sampler's
    ``scale**-2`` is finite.
    """

    s_beta: float = 1.0
    s_u: float = 1.0
    s_eps: float = 1.0
    intercept_sd: float = 100.0

    def __post_init__(self):
        for name in ("s_beta", "s_u", "s_eps", "intercept_sd"):
            _check_real(getattr(self, name), name, 1e-154, ConfigError)


@dataclass(frozen=True)
class AdditiveModelSpec:
    """Model shape: sample size, candidate counts, spline-block sizes."""

    n: int
    d_lin: int
    d_nl: int
    basis_size: int | tuple = 6
    hyper: Hyper = field(default_factory=Hyper)

    def __post_init__(self):
        _check_integer(self.n, "n", 1, ConfigError, sys.maxsize)
        n_spline = _check_model(self.d_lin, self.d_nl, self.basis_size, self.hyper)
        if self.n <= self.d_lin + self.d_nl + n_spline:
            warnings.warn(
                "sample size does not exceed the total coefficient count",
                stacklevel=2,
            )

    @property
    def basis_sizes(self):
        return _basis_sizes(self.basis_size, self.d_nl)

    @property
    def p(self):
        return self.d_lin + self.d_nl


@dataclass
class Dataset:
    """Simulated predictors/response with the generating truth attached."""

    x: np.ndarray
    y: np.ndarray
    truth: tuple
    mean_surface: np.ndarray


_NONLINEAR_SHAPES = (
    lambda t: np.sin(2.0 * math.pi * t),
    lambda t: np.cos(2.0 * math.pi * t),
    lambda t: np.sin(4.0 * math.pi * t),
)


def generate_data(spec: AdditiveModelSpec, sigma_eps, seed, truth=None):
    """Simulate predictors ~ U(0,1) i.i.d. and a Gaussian response.

    ``truth`` assigns one of {"zero", "linear", "non-linear"} to each of the
    d_lin + d_nl predictors; zero-or-linear candidates may not carry a
    non-linear truth.  Default (None or []): zero for every d_lin candidate, then
    half linear / half non-linear across the d_nl candidates.  A linear
    truth adds x - 1/2, a non-linear one a unit-amplitude sine or cosine.
    """
    _check_real(sigma_eps, "sigma_eps", 0.0, ConfigError, inclusive=True)
    truth = _check_truth(() if truth is None else truth, spec.d_lin, spec.d_nl)

    rng = make_rng(seed)
    x = rng.random((spec.n, spec.p))
    surface = np.zeros(spec.n)
    shape_idx = 0
    for j, t in enumerate(truth):
        if t == "linear":
            surface += x[:, j] - 0.5
        elif t == "non-linear":
            g = _NONLINEAR_SHAPES[shape_idx % len(_NONLINEAR_SHAPES)]
            surface += g(x[:, j])
            shape_idx += 1
    with np.errstate(over="ignore"):  # a noise draw past the float range is refused below
        y = surface + sigma_eps * rng.standard_normal(spec.n)
    if not np.isfinite(y).all():
        raise NumericalError(f"sigma_eps = {sigma_eps!r} takes the response past the float range")
    return Dataset(x, y, truth, surface)


def _bspline_knots(values, K):
    """Knot vector of the K + 2 cubic B-splines on [0, 1]: 4-fold end knots
    and K - 2 interior knots at quantiles of ``values`` (spline_basis passes
    the distinct values of its rescaled predictor).
    """
    interior = np.quantile(values, np.arange(1, K - 1) / (K - 1.0))
    interior = np.clip(interior, 1e-10, 1.0 - 1e-10)
    return np.concatenate(([0.0] * 4, interior, [1.0] * 4))


def _bspline_design(t, knots, k=3):
    """Values of every degree-``k`` B-spline on ``knots`` at the points ``t``.

    De Boor's recurrence (BSPLVB, de Boor 1972), vectorized over the points
    in the operation order of SciPy's ``_deBoor_D``, so the design is the one
    ``BSpline(knots, np.eye(n_basis), k, extrapolate=True)(t)`` gives, bit
    for bit.  Each point takes the interval t_l <= t < t_(l+1), with the
    last non-empty one for t at or past the right end.
    """
    n_basis = knots.size - k - 1
    ell = np.clip(np.searchsorted(knots, t, side="right") - 1, k, n_basis - 1)
    # row i holds knot ell + i - (k - 1) of each point, i = 0 .. 2k - 1
    near = knots[ell + np.arange(1 - k, k + 1)[:, None]]
    right, left = near - t, t - near
    h = np.zeros((k + 1, t.size))  # h[i]: B-spline ell - k + i at each point
    h[0] = 1.0
    for j in range(1, k + 1):
        hh = h[:j].copy()
        h[0] = 0.0
        for m in range(1, j + 1):
            b, a = k - 1 + m, k - 1 + m - j  # rows of x_b = t_(ell+m), x_a = t_(ell+m-j)
            span = near[b] - near[a]
            w = np.divide(hh[m - 1], span, out=np.zeros(t.size), where=span != 0)
            h[m - 1] += w * right[b]
            h[m] = w * left[a]
    design = np.zeros((t.size, n_basis))
    design.ravel()[np.arange(t.size) * n_basis + ell - k + np.arange(k + 1)[:, None]] = h
    return design


def spline_basis(x, K):
    """Cubic-spline basis for the purely non-linear part of one predictor.

    Interior knots sit at quantiles of the min-max rescaled data; the
    B-spline design is then residualized against span{1, x} and
    orthonormalized, so the K returned columns carry only curvature, have
    unit norm, and are exactly orthogonal to the constant and linear terms.
    """
    x = _check_array(x, "x")
    if x.ndim != 1 or x.size == 0:
        raise DimensionError("x must be a vector of one or more values")
    if not np.isfinite(x).all():
        raise DomainError("x must be finite")
    K = _check_integer(K, "K", 2, ConfigError)
    lo, hi = x.min(), x.max()
    if not math.isfinite(float(hi) - float(lo)):
        raise DomainError("the range of x overflows")
    t = (x - lo) / (hi - lo) if hi > lo else x
    distinct = np.unique(t)
    if distinct.size < K + 2:
        raise DegenerateError(f"need at least K + 2 = {K + 2} distinct values")
    b = _bspline_design(t, _bspline_knots(distinct, K))

    # residuals on span{1, t} by an explicit projection: h holds the unit
    # constant and the unit vector of the centred t, an orthonormal basis
    e = t - t.mean()
    h = np.column_stack((np.full(t.size, t.size**-0.5), e / np.linalg.norm(e)))
    b -= h @ (h.T @ b)
    u_mat, s, _ = np.linalg.svd(b, full_matrices=False)
    if s[K - 1] <= 1e-10 * s[0]:
        raise DegenerateError("spline design is rank deficient after orthogonalization")
    # strip the SVD round-off so the orthogonality contract is exact
    z = u_mat[:, :K]
    z = z - h @ (h.T @ z)
    return z / np.linalg.norm(z, axis=0)


def build_design(dataset: Dataset, spec: AdditiveModelSpec):
    """Assemble [1 | standardized linear columns | scaled spline blocks].

    Returns (C, beta_cols, u_blocks) where beta_cols[j] is the column of
    predictor j's linear term and u_blocks[i] the slice of block i.
    """
    n, p = dataset.x.shape
    if p != spec.p or n != spec.n:
        raise DimensionError("dataset does not match the model spec")
    if not np.isfinite(dataset.x).all():
        raise DomainError("predictors must be finite")
    x = np.ascontiguousarray(dataset.x.T)  # one row per predictor
    constant = np.flatnonzero(x.min(axis=1) == x.max(axis=1))
    if constant.size:  # a constant's rounded mean can leave a std of 1e-17
        raise DegenerateError(f"predictor {constant[0]} is constant")
    edges = np.cumsum((p + 1, *spec.basis_sizes)).tolist()
    u_blocks = [slice(a, b) for a, b in zip(edges, edges[1:])]
    c = np.empty((n, edges[-1]))
    c[:, 0] = 1.0
    c[:, 1:p + 1] = ((x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)).T
    for i, block in enumerate(u_blocks):
        c[:, block] = spline_basis(x[spec.d_lin + i], block.stop - block.start) * _BASIS_SCALE
    return c, list(range(1, p + 1)), u_blocks


@dataclass
class GibbsChain:
    """Post-burn-in draws; scale entries are standard deviations (> 0).

    ``diagnostics`` counts over all sweeps: inverse-gamma draws clipped to
    [1e-300, 1e300], prior variances (one per linear term or spline block)
    raised to ``var_floor``, and noise variances raised to their floor.
    """

    beta0: np.ndarray
    beta: np.ndarray
    u: np.ndarray
    u_blocks: list
    lambda_beta: np.ndarray
    lambda_u: np.ndarray
    sigma_beta: np.ndarray
    sigma_u: np.ndarray
    sigma_eps: np.ndarray
    spec: AdditiveModelSpec
    diagnostics: dict = field(default_factory=dict)

    def __len__(self):
        return self.beta0.shape[0]


def _gamma_shapes(spec: AdditiveModelSpec):
    """Gamma shapes of one sweep's inverse-gamma draws, in draw order.

    Level 1 holds every local scale lambda^2 (linear terms, then blocks) and
    sigma_eps^2; level 2 their auxiliaries with the global scales (a_beta,
    sigma_beta^2, a_u, sigma_u^2, b_eps); level 3 the global auxiliaries
    (b_beta, b_u).  Each level is conditionally independent given the ones
    drawn before it.
    """
    p, d_nl = spec.p, spec.d_nl
    half_k = 0.5 * (np.array(spec.basis_sizes, dtype=int) + 1)
    return np.concatenate((
        np.ones(p), half_k, [0.5 * (spec.n + 1)],
        np.ones(p), [0.5 * (p + 1)], np.ones(d_nl), half_k, [1.0],
        np.ones(1 + d_nl),
    ))


def _inv_gamma(rate, gamma):
    """Inverse-gamma draws ``rate / gamma``, in place in ``rate``.

    With ``gamma`` a standard gamma variate of shape k, each element is a
    draw from the density ~ x^(-k-1) e^(-rate/x).  Each sampler rate is at
    least 1/x for a draw x <= 1e300, so needs no floor; the quotients are
    clamped to [1e-300, 1e300], which deep shrinkage can push them past.
    """
    np.divide(rate, gamma, out=rate)
    np.maximum(rate, 1e-300, out=rate)
    return np.minimum(rate, 1e300, out=rate)


def _count_clipped(draws):
    return int(np.count_nonzero((draws <= 1e-300) | (draws >= 1e300)))


def _draw_coefficients(q_mat, rhs, z):
    """One draw from N(Q^-1 rhs, Q^-1) given standard normal ``z`` (Rue 2001).

    With Q = LL', the draw is Q^-1 rhs + L^-T z = L^-T (L^-1 rhs + z): two
    triangular solves.  The LAPACK routines behind cho_factor and
    solve_triangular run directly, without those wrappers' input checks,
    and in place: a Fortran-order ``q_mat`` becomes L and ``rhs`` the draw;
    ``z`` is only read.  Returns the draw.
    """
    from scipy.linalg.lapack import dpotrf, dtrtrs

    chol, info = dpotrf(q_mat, lower=1, clean=0, overwrite_a=1)
    # OpenBLAS's dpotrf reports only minors that are not positive; a NaN or
    # inf in Q's lower triangle passes with info 0 but reaches L's diagonal.
    # That diagonal is positive and, in the sampler, at most about 1e145
    # (prior precisions <= 1e290), so its sum is finite exactly when every
    # entry is
    if info != 0 or not math.isfinite(chol.diagonal().sum()):
        raise NumericalError(
            f"precision matrix is not finite and positive definite (dpotrf info {info})"
        )
    w, _ = dtrtrs(chol, rhs, lower=1, overwrite_b=1)
    w += z
    draw, _ = dtrtrs(chol, w, lower=1, trans=1, overwrite_b=1)
    return draw


class _ResidualSS:
    """Residual sum of squares ||y - C b||^2 from q x q work per call.

    With F'F = C'C and F'w = C'y (Cholesky C'C = LL', F = L', w = L^-1 C'y),
    the normal equations give, for every b,

        ||y - C b||^2 = rss0 + ||F b - w||^2,   rss0 = ||y||^2 - ||w||^2,

    the least-squares residual plus the misfit of b.  ||w|| <= ||y|| and F b
    is as large as C b, so nothing large cancels, also when near-collinear
    columns make the least-squares coefficients huge.  When C'C does not
    factorize (n <= q, or repeated columns), F = S V' and w = U'y come from
    the thin SVD C = U S V' truncated to the numerical rank.
    """

    def __init__(self, c, ctc):
        try:
            self.chol = np.linalg.cholesky(ctc)
            self.f = self.chol.T
        except np.linalg.LinAlgError:
            self.chol = None
            u, s, vt = np.linalg.svd(c, full_matrices=False)
            rank = int(np.count_nonzero(s > s[0] * max(c.shape) * np.finfo(float).eps))
            self.u, self.f = u[:, :rank], s[:rank, None] * vt[:rank]

    def set_response(self, y, cty):
        """Measure later residuals against ``y``; ``cty`` is C'y."""
        if self.chol is None:
            w = self.u.T @ y
        else:
            from scipy.linalg import solve_triangular

            w = solve_triangular(self.chol, cty, lower=True, check_finite=False)
        self.w, self.rss0 = w, max(float(y @ y - w @ w), 0.0)

    def __call__(self, coef):
        e = self.f @ coef - self.w
        return self.rss0 + float(e @ e)


def gibbs_sampler(
    dataset: Dataset,
    spec: AdditiveModelSpec,
    iters,
    burn,
    seed,
    fixed_scales=None,
    resample_response=False,
):
    """Block Gibbs sampler for the additive model.

    One sweep = a joint Gaussian draw of (beta0, beta, u) given all scales,
    then inverse-gamma updates for every lambda^2, sigma^2 and their
    parameter-expansion auxiliaries in three levels of conditionally
    independent draws (see _gamma_shapes): the local scales and sigma_eps^2,
    then their auxiliaries with the global scales, then the global
    auxiliaries.  The gamma variates of all three levels are drawn first,
    in one array-shape call, which consumes the generator exactly as one
    call per level.  Each level is then one pass: its rates are written,
    then divided by its variates and clamped to [1e-300, 1e300] in place
    (_inv_gamma), and the clamped draws are counted in ``diagnostics``.
    ``fixed_scales`` freezes all scales at given values (keys: lambda_beta,
    lambda_u, sigma_beta, sigma_u, sigma_eps), which makes the coefficient
    draws exact posterior samples -- used by the conjugate-oracle test.

    ``resample_response=True`` turns the sampler into a successive-conditional
    simulator (each sweep redraws y from the current parameters), whose
    stationary law is the prior; only validation tests use this.
    """
    iters = _check_integer(iters, "iters", 1, ConfigError, sys.maxsize)
    burn = _check_integer(burn, "burn", 0, ConfigError, sys.maxsize)
    if not iters > burn:
        raise ConfigError(f"need iters > burn, got {iters}, {burn}")
    if not np.isfinite(dataset.y).all():
        raise DomainError("response must be finite")
    c, _, u_blocks = build_design(dataset, spec)
    y = dataset.y
    n, q = c.shape
    p = spec.p
    d_nl = spec.d_nl
    ctc = np.asfortranarray(c.T @ c)
    cty = c.T @ y
    # the sweep never touches the n x q design: rss comes from C'C
    residual_ss = _ResidualSS(c, ctc)
    residual_ss.set_response(y, cty)
    rng = make_rng(seed)
    hyper = spec.hyper

    # One sweep's state in one buffer: the coefficients, then every scale
    # draw, filled in place through views; the gamma variates, drawn in one
    # call in draw order (_gamma_shapes), are scattered through ``dest`` into
    # a second buffer of the same layout.  That layout is the draw order
    # with sigma_beta^2 moved behind a_u, so that the local scales of the
    # linear terms and of the blocks, their auxiliaries, the sigma^2 and
    # their auxiliaries each fill one slice:
    #   level 1: lambda^2 (m), sigma_eps^2
    #   level 2: a (m), sigma_beta^2, sigma_u^2 (d_nl), b_eps
    #   level 3: b_beta, b_u (d_nl)
    m = p + d_nl
    shapes = _gamma_shapes(spec)
    dest = np.arange(shapes.size)  # the state slot of each variate, in draw order
    dest[m + 1 + p] = 2 * m + 1  # sigma_beta^2, drawn between a_beta and a_u
    dest[m + 2 + p : 2 * m + 2] -= 1  # a_u
    row = np.ones(q + shapes.size)
    coef, g = row[:q], row[q:]
    gamma = np.empty(shapes.size)
    i_se, i_be = m, 2 * m + 2 + d_nl
    lam2, a_aux, sig2, b_aux = g[:m], g[m + 1 : 2 * m + 1], g[2 * m + 1 : i_be], g[i_be + 1 :]
    lam2_u, sig2_u = lam2[p:], sig2[1:]
    levels = [
        (g[lo:hi], gamma[lo:hi]) for lo, hi in ((0, m + 1), (m + 1, i_be + 1), (i_be + 1, None))
    ]
    sig2_e = 1.0
    if fixed_scales is not None:
        lam2[:p] = np.asarray(fixed_scales["lambda_beta"], dtype=float) ** 2
        lam2_u[:] = np.asarray(fixed_scales.get("lambda_u", np.ones(d_nl)), dtype=float) ** 2
        sig2[0] = float(fixed_scales["sigma_beta"]) ** 2
        sig2_u[:] = np.asarray(fixed_scales.get("sigma_u", np.ones(d_nl)), dtype=float) ** 2
        g[i_se] = sig2_e = float(fixed_scales["sigma_eps"]) ** 2
    # sigma^2 of each local scale: sigma_beta^2 for the p linear terms, then
    # sigma_u^2 of each block; refreshed after every level-2 draw
    sig2_idx = np.concatenate((np.zeros(p, dtype=np.intp), np.arange(1, d_nl + 1)))
    sig2_col = sig2.take(sig2_idx)
    hyper_prec = np.concatenate(([hyper.s_beta**-2], np.full(d_nl, hyper.s_u**-2)))
    s_eps_prec = hyper.s_eps**-2

    ks = np.array(spec.basis_sizes, dtype=int)
    # squared linear coefficients, then the blocks' sums of squares: one
    # np.add.reduceat over the squared coefficients, one segment per term
    sq_starts = np.array([*range(p), *(blk.start - 1 for blk in u_blocks)], dtype=np.intp)
    sq, coef2 = np.empty(m), np.empty(q - 1)
    beta2, ss = sq[:p], sq[p:]
    ratio = np.empty(m)
    ratio_u = ratio[p:]
    a_b = a_aux[:p]
    # prior variance of each non-intercept column: p linear terms, then the blocks
    col_var = np.concatenate((np.arange(p), np.repeat(np.arange(p, m), ks)))

    # one stored row per sweep: coefficients, lambda_beta^2, lambda_u^2,
    # sigma_beta^2, sigma_u^2, sigma_eps^2 (GibbsChain's field order)
    kept = np.r_[0 : q + m, q + 2 * m + 1 : q + i_be, q + i_se]
    try:
        out = np.empty((iters - burn, kept.size))
    except (ValueError, MemoryError):  # past NumPy's index range, or past the memory
        raise ConfigError(f"{iters - burn} kept draws of {kept.size} values do not fit in memory") from None
    clipped = var_floor_hits = sig2_e_floor_hits = 0

    # floor on prior variances: hard-shrunk blocks drive lambda^2 sigma^2
    # below the denormal range, and 1/0 would poison the precision matrix
    var_floor = 1e-290
    prior_prec = np.empty(q)
    prior_prec[0] = hyper.intercept_sd**-2
    # Q is rebuilt in one buffer every sweep and factorized in place; coef
    # takes the right-hand side and becomes the draw
    q_mat = np.empty((q, q), order="F")
    q_diag = q_mat.reshape(-1, order="F")[:: q + 1]
    z = np.empty(q)
    var = np.empty(m)
    # a draw past the float range divides to inf, which _inv_gamma clamps
    with np.errstate(over="ignore"):
        for it in range(iters):
            np.multiply(lam2, sig2_col, out=var)
            # fmin skips NaN, as the elementwise floor does
            if np.fmin.reduce(var, initial=math.inf) < var_floor:
                var_floor_hits += int(np.count_nonzero(var < var_floor))
                np.maximum(var, var_floor, out=var)
            np.divide(1.0, var, out=var).take(col_var, out=prior_prec[1:], mode="clip")
            # 1/sig2_e lies in [1e-300, 1e100]: a multiply, cheaper than a divide
            inv_sig2_e = 1.0 / sig2_e
            np.multiply(ctc, inv_sig2_e, out=q_mat)
            q_diag += prior_prec
            np.multiply(cty, inv_sig2_e, out=coef)
            rng.standard_normal(out=z)
            try:
                _draw_coefficients(q_mat, coef, z)
            except NumericalError as exc:
                raise NumericalError(f"covariance solve failed at iteration {it}: {exc}") from exc

            rss = residual_ss(coef)

            if fixed_scales is None:
                gamma[dest] = rng.standard_gamma(shapes)
                np.add.reduceat(np.square(coef[1:], out=coef2), sq_starts, out=sq)

                # each level's rates go into its slots, then _inv_gamma divides and
                # clamps them in place; a rate reads only draws of other levels
                np.multiply(sig2_col, 2.0, out=ratio)
                np.divide(sq, ratio, out=ratio)
                np.divide(1.0, a_aux, out=lam2)
                lam2 += ratio
                g[i_se] = 1.0 / g[i_be] + rss / 2.0
                _inv_gamma(*levels[0])
                sig2_e = float(g[i_se])
                if sig2_e < 1e-100:  # noise floor keeps ctc/sig2_e finite on noiseless inputs
                    sig2_e_floor_hits += 1
                    # counted here: the count below sees the floor
                    clipped += sig2_e <= 1e-300
                    g[i_se] = sig2_e = 1e-100

                np.divide(1.0, lam2, out=a_aux)  # 1/lam2_b also serves beta' Lambda^-1 beta
                np.divide(1.0, b_aux, out=sig2)
                sig2[0] += float(beta2 @ a_b) / 2.0
                np.multiply(lam2_u, 2.0, out=ratio_u)
                sig2_u += np.divide(ss, ratio_u, out=ratio_u)
                a_aux += 1.0
                g[i_be] = s_eps_prec + 1.0 / sig2_e
                _inv_gamma(*levels[1])

                np.divide(1.0, sig2, out=b_aux)
                b_aux += hyper_prec
                _inv_gamma(*levels[2])
                # one fmin and one fmax gate the count of clamped draws; they
                # skip NaN, as the clamps and the count do
                if not (1e-300 < np.fmin.reduce(g) and np.fmax.reduce(g) < 1e300):
                    clipped += _count_clipped(g)
                sig2.take(sig2_idx, out=sig2_col)

            if resample_response:
                y = c @ coef + math.sqrt(sig2_e) * rng.standard_normal(n)
                cty = c.T @ y
                residual_ss.set_response(y, cty)

            if it >= burn:
                row.take(kept, out=out[it - burn], mode="clip")

    np.sqrt(out[:, q:], out=out[:, q:])
    beta0, beta, u, lb, lu, sb, su, se = np.split(
        out, np.cumsum((1, p, q - 1 - p, p, d_nl, 1, d_nl)), axis=1
    )
    rel_blocks = [slice(blk.start - (p + 1), blk.stop - (p + 1)) for blk in u_blocks]
    diagnostics = dict(inv_gamma_clipped=clipped, var_floor_hits=var_floor_hits,
                       sig2_e_floor_hits=sig2_e_floor_hits)
    return GibbsChain(
        beta0[:, 0], beta, u, rel_blocks, lb, lu, sb[:, 0], su, se[:, 0],
        spec, diagnostics,
    )


# ---------------------------------------------------------------------------
# Threshold statistics and classification
# ---------------------------------------------------------------------------


@dataclass
class ThresholdReport:
    """Per-predictor posterior shrinkage statistics."""

    gamma_beta: list
    gamma_u: list  # None entries for zero-or-linear candidates


def gamma_statistics(chain: GibbsChain):
    """Posterior means of the per-block shrinkage factors, in (0, 1)."""
    if len(chain) == 0:
        raise ConfigError("chain has no retained draws")
    se2 = chain.sigma_eps**2

    def means(v):
        # one block per row, so each mean sums its draws as np.mean of one
        # contiguous column would
        return (v / (se2 + v)).mean(axis=1).tolist()

    # .T.copy(): the blocks' draws as contiguous rows
    gb = means(chain.lambda_beta.T.copy() ** 2 * chain.sigma_beta**2)
    gu = means(chain.lambda_u.T.copy() ** 2 * chain.sigma_u.T.copy() ** 2)
    return ThresholdReport(gamma_beta=gb, gamma_u=[None] * chain.spec.d_lin + gu)


def classify(report: ThresholdReport, border=0.5, border_u=None):
    """Zero / linear / non-linear labels from the shrinkage statistics.

    A candidate is non-linear when its spline statistic exceeds
    ``border_u`` (``border`` if None; the study also passes the 2-means
    data-driven threshold), else linear when its linear statistic exceeds
    ``border``, else zero; one with no spline block (None) is never
    non-linear.  Each statistic is a finite real number.
    """
    border = _check_real(border, "border", -math.inf)
    bu = border if border_u is None else _check_real(border_u, "border_u", -math.inf)
    if len(report.gamma_beta) != len(report.gamma_u):
        raise LengthError("gamma_beta and gamma_u need one statistic per predictor")
    labels = []
    for gb, gu in zip(report.gamma_beta, report.gamma_u):
        gb = _check_real(gb, "gamma_beta", -math.inf)
        gu = -math.inf if gu is None else _check_real(gu, "gamma_u", -math.inf)
        labels.append("non-linear" if gu > bu else "linear" if gb > border else "zero")
    return labels


@dataclass(frozen=True)
class MisclassRate:
    """Mismatch count over total, with percent formatting."""

    count: int
    total: int

    @property
    def rate(self):
        return self.count / self.total

    @property
    def percent(self):
        return 100.0 * self.rate

    def __str__(self):
        return f"{self.count}/{self.total} = {self.percent:.1f}%"


def misclassification_rate(labels, truth):
    """How many of ``labels`` differ from ``truth``, two sequences of one
    length (not strings) whose entries are strings, the labels."""
    if not all(isinstance(v, Sized) and not isinstance(v, str) for v in (labels, truth)):
        raise DomainError("labels and truth must be sequences")
    if len(labels) != len(truth):
        raise LengthError(f"{len(labels)} labels vs {len(truth)} truths")
    if len(labels) == 0:
        raise DegenerateError("need at least one label")
    if not all(isinstance(v, str) for v in (*labels, *truth)):
        raise DomainError("labels must be strings")
    count = sum(1 for a, b in zip(labels, truth) if a != b)
    return MisclassRate(count, len(labels))


def kmeans_threshold(values):
    """Exact optimal 2-cluster split of scalar values, of any shape and
    taken as one list; returns the border.

    Minimizes within-cluster sum of squares over all sorted splits (the
    1-D k-means optimum) and returns the midpoint of the two cluster means.
    Both are scale-equivariant, so values past 1e150, whose squares would
    overflow, are split as v / max|v| and the border scaled back.
    """
    vals = np.sort(_check_array(values, "values"), axis=None)
    if not np.isfinite(vals).all():
        raise DomainError("values must be finite")
    if vals.size < 2 or vals[0] == vals[-1]:
        raise DegenerateError("need at least two distinct values")
    scale = max(-vals[0], vals[-1])
    if scale > 1e150:
        return scale * kmeans_threshold(vals / scale)
    csum = np.cumsum(vals)
    csq = np.cumsum(vals**2)
    total_sum, total_sq = csum[-1], csq[-1]
    best = (math.inf, None)
    for k in range(1, vals.size):
        ls, lq = csum[k - 1], csq[k - 1]
        rs, rq = total_sum - ls, total_sq - lq
        wcss = (lq - ls * ls / k) + (rq - rs * rs / (vals.size - k))
        if wcss < best[0] - 1e-15:
            best = (wcss, k)
    k = best[1]
    return 0.5 * (csum[k - 1] / k + (total_sum - csum[k - 1]) / (vals.size - k))


def chain_to_csv(chain: GibbsChain, path):
    """Columnar CSV export: one parameter per column, one draw per row."""
    spec = chain.spec
    header = ["beta0"]
    header += [f"beta_{j + 1}" for j in range(spec.p)]
    for i, blk in enumerate(chain.u_blocks):
        header += [f"u_{i + 1}_{k + 1}" for k in range(blk.stop - blk.start)]
    header += [f"lambda_beta_{j + 1}" for j in range(spec.p)]
    header += [f"lambda_u_{i + 1}" for i in range(spec.d_nl)]
    header += ["sigma_beta"]
    header += [f"sigma_u_{i + 1}" for i in range(spec.d_nl)]
    header += ["sigma_eps"]
    draws = np.column_stack((
        chain.beta0, chain.beta, chain.u, chain.lambda_beta, chain.lambda_u,
        chain.sigma_beta, chain.sigma_u, chain.sigma_eps,
    ))
    step = max(1, (1 << 15) // draws.shape[1])  # rows formatted at a time
    chunks = (float_codes(draws[lo:lo + step].T) for lo in range(0, len(draws), step))
    write_csv_chunks(path, header, map(csv_bytes, chunks))
