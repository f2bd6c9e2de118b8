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

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateError,
    DimensionError,
    LengthError,
    NumericalError,
)
from .rng import make_rng

# scipy.linalg is bound on first use, so that importing ghs.gamsel or
# ghs.study costs no SciPy.  All six names stay module attributes (through
# __getattr__ below); cho_factor and cho_solve only for perfbench/spans.py,
# which patches them.
_LINALG = ("cho_factor", "cho_solve", "solve_triangular")
_LAPACK = ("dpotrf", "dpotrs", "dtrtrs")


def _load_linalg():
    """Bind the scipy.linalg names; a name already set, such as a patch, stays."""
    import scipy.linalg
    from scipy.linalg import lapack

    names = globals()
    for name in _LINALG:
        names.setdefault(name, getattr(scipy.linalg, name))
    for name in _LAPACK:
        names.setdefault(name, getattr(lapack, name))


def __getattr__(name):
    if name in _LINALG or name in _LAPACK:
        _load_linalg()
        return globals()[name]
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


@dataclass(frozen=True)
class Hyper:
    """Half-Cauchy hyperprior scales and the (proper) intercept prior sd."""

    s_beta: float = 1.0
    s_u: float = 1.0
    s_eps: float = 1.0
    intercept_sd: float = 100.0


@dataclass(frozen=True)
class AdditiveModelSpec:
    """Model shape: sample size, candidate counts, spline-block sizes.

    ``basis_scale`` multiplies the orthonormal spline columns and thereby
    sets the prior-to-noise balance of the u-blocks; see spline_basis.
    """

    n: int
    d_lin: int
    d_nl: int
    basis_size: int | tuple = 6
    basis_scale: float = 0.15
    hyper: Hyper = field(default_factory=Hyper)

    def __post_init__(self):
        if self.n < 1 or self.d_lin < 0 or self.d_nl < 0:
            raise ConfigError("n must be positive; candidate counts nonnegative")
        ks = self.basis_sizes
        if any(k < 2 for k in ks):
            raise ConfigError("every spline block needs K >= 2")
        if self.n <= self.d_lin + self.d_nl + sum(ks):
            warnings.warn(
                "sample size does not exceed the total coefficient count",
                stacklevel=2,
            )

    @property
    def basis_sizes(self):
        if isinstance(self.basis_size, int):
            return tuple([self.basis_size] * self.d_nl)
        ks = tuple(int(k) for k in self.basis_size)
        if len(ks) != self.d_nl:
            raise ConfigError("basis_size tuple must have one entry per d_nl candidate")
        return ks

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
    sigma_eps: float
    seed: int


_NONLINEAR_SHAPES = (
    lambda t: np.sin(2.0 * math.pi * t),
    lambda t: np.cos(2.0 * math.pi * t),
    lambda t: np.sin(4.0 * math.pi * t),
)


def generate_data(
    spec: AdditiveModelSpec,
    sigma_eps,
    seed,
    truth=None,
    linear_coef=1.0,
    nonlinear_amp=1.0,
):
    """Simulate predictors ~ U(0,1) i.i.d. and a Gaussian response.

    ``truth`` assigns one of {"zero", "linear", "non-linear"} to each of the
    d_lin + d_nl predictors; zero-or-linear candidates may not carry a
    non-linear truth.  Default truth: zero for every d_lin candidate, then
    half linear / half non-linear across the d_nl candidates.
    """
    if sigma_eps < 0:
        raise ConfigError("sigma_eps must be nonnegative")
    p = spec.p
    if truth is None:
        n_lin = spec.d_nl // 2
        truth = (
            ["zero"] * spec.d_lin
            + ["linear"] * n_lin
            + ["non-linear"] * (spec.d_nl - n_lin)
        )
    truth = tuple(truth)
    if len(truth) != p:
        raise ConfigError(f"truth pattern has length {len(truth)}, expected {p}")
    if any(t not in LABELS for t in truth):
        raise ConfigError(f"labels must be in {LABELS}")
    if any(t == "non-linear" for t in truth[: spec.d_lin]):
        raise ConfigError("zero-or-linear candidates cannot have a non-linear truth")

    rng = make_rng(seed)
    x = rng.random((spec.n, p))
    surface = np.zeros(spec.n)
    shape_idx = 0
    for j, t in enumerate(truth):
        if t == "linear":
            surface += linear_coef * (x[:, j] - 0.5)
        elif t == "non-linear":
            g = _NONLINEAR_SHAPES[shape_idx % len(_NONLINEAR_SHAPES)]
            surface += nonlinear_amp * g(x[:, j])
            shape_idx += 1
    y = surface + sigma_eps * rng.standard_normal(spec.n)
    return Dataset(x, y, truth, surface, float(sigma_eps), int(seed))


def _bspline_functions(t, K):
    """The K + 2 cubic B-spline functions on [0, 1] with K - 2 interior knots
    at quantiles of the distinct values of ``t``, as one vector-valued
    BSpline: identity coefficients make output column i the i-th function.
    """
    # imported here: scipy.interpolate loads scipy.optimize and scipy.sparse,
    # about 20 MB that `import ghs` should not cost
    from scipy.interpolate import BSpline

    if K > 2:
        probs = np.arange(1, K - 1) / (K - 1.0)
        interior = np.quantile(np.unique(t), probs)
        interior = np.clip(interior, 1e-10, 1.0 - 1e-10)
    else:
        interior = np.array([])
    knots = np.concatenate(([0.0] * 4, interior, [1.0] * 4))
    return BSpline(knots, np.eye(K + 2), 3, extrapolate=True)


def spline_basis(x, K):
    """Cubic-spline basis for the purely non-linear part of one predictor.

    Interior knots sit at quantiles of the min-max rescaled data; the
    B-spline design is then residualized against span{1, x} and
    orthonormalized, so the K returned columns carry only curvature, have
    unit norm, and are exactly orthogonal to the constant and linear terms.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionError("x must be a vector")
    if K < 2:
        raise ConfigError("K must be >= 2")
    if np.unique(x).size < K + 2:
        raise DegenerateError(f"need at least K + 2 = {K + 2} distinct values")
    lo, hi = x.min(), x.max()
    t = (x - lo) / (hi - lo)
    b = _bspline_functions(t, K)(t)

    g = np.column_stack([np.ones_like(t), t])
    b = b - g @ np.linalg.lstsq(g, b, rcond=None)[0]
    u_mat, s, _ = np.linalg.svd(b, full_matrices=False)
    if s[K - 1] <= 1e-10 * s[0]:
        raise DegenerateError("spline design is rank deficient after orthogonalization")
    z = u_mat[:, :K]
    # strip the lstsq round-off so the orthogonality contract is exact
    z = z - g @ np.linalg.lstsq(g, z, rcond=None)[0]
    return z / np.linalg.norm(z, axis=0)


def build_design(dataset: Dataset, spec: AdditiveModelSpec):
    """Assemble [1 | standardized linear columns | scaled spline blocks].

    Returns (C, beta_cols, u_blocks) where beta_cols[j] is the column of
    predictor j's linear term and u_blocks[i] the slice of block i.
    """
    n, p = dataset.x.shape
    if p != spec.p or n != spec.n:
        raise DimensionError("dataset does not match the model spec")
    cols = [np.ones(n)]
    for j in range(p):
        xj = dataset.x[:, j]
        sd = xj.std()
        if sd == 0:
            raise DegenerateError(f"predictor {j} is constant")
        cols.append((xj - xj.mean()) / sd)
    beta_cols = list(range(1, p + 1))
    u_blocks = []
    offset = p + 1
    for i, k in enumerate(spec.basis_sizes):
        z = spline_basis(dataset.x[:, spec.d_lin + i], k) * spec.basis_scale
        cols.append(z)
        u_blocks.append(slice(offset, offset + k))
        offset += k
    c = np.column_stack(cols)
    return c, beta_cols, u_blocks


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
    iters: int
    burn: int
    seed: int
    diagnostics: dict = field(default_factory=dict)

    def __len__(self):
        return self.beta0.shape[0]


def _inv_gamma(rng, shape, scale):
    """Draw from the inverse gamma with density ~ x^(-shape-1) e^(-scale/x).

    One independent variate per element of ``scale``.  Draws are clipped to
    the representable range: deep shrinkage pushes rates below the denormal
    range where the ratio degenerates to 0 or inf.  ``scale`` (a float
    array) is overwritten; the draws reuse the gamma variates' buffer.
    """
    gamma = rng.standard_gamma(shape, scale.shape)
    np.divide(np.maximum(scale, 1e-300, out=scale), gamma, out=gamma)
    np.maximum(gamma, 1e-300, out=gamma)
    return np.minimum(gamma, 1e300, out=gamma)


def _count_clipped(draws):
    return int(np.count_nonzero((draws <= 1e-300) | (draws >= 1e300)))


def _draw_coefficients(q_mat, rhs, z):
    """One draw from N(Q^-1 rhs, Q^-1) given standard normal ``z`` (Rue 2001).

    With Q = LL', the draw is Q^-1 rhs + L^-T z.  The LAPACK routines behind
    cho_factor, cho_solve and solve_triangular run directly, without those
    wrappers' input checks, and in place: a Fortran-order ``q_mat`` becomes
    L, ``rhs`` the draw and ``z`` the noise.  Returns the draw.
    """
    try:
        chol, info = dpotrf(q_mat, lower=1, clean=0, overwrite_a=1)
    except NameError:  # the first LAPACK call of the process
        _load_linalg()
        chol, info = dpotrf(q_mat, lower=1, clean=0, overwrite_a=1)
    # OpenBLAS's dpotrf reports only minors that are not positive; a NaN or
    # inf in Q's lower triangle passes with info 0 but reaches L's diagonal
    if info != 0 or not np.isfinite(chol.diagonal()).all():
        raise NumericalError(
            f"precision matrix is not finite and positive definite (dpotrf info {info})"
        )
    mean, _ = dpotrs(chol, rhs, lower=1, overwrite_b=1)
    noise, _ = dtrtrs(chol, z, lower=1, trans=1, overwrite_b=1)
    mean += noise
    return mean


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
        _load_linalg()
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
    parameter-expansion auxiliaries, as three array draws of conditionally
    independent groups: the local scales and sigma_eps^2, then their
    auxiliaries with the global scales, then the global auxiliaries.
    ``fixed_scales`` freezes all scales at given values (keys: lambda_beta,
    lambda_u, sigma_beta, sigma_u, sigma_eps), which makes the coefficient
    draws exact posterior samples -- used by the conjugate-oracle test.

    ``resample_response=True`` turns the sampler into a successive-conditional
    simulator (each sweep redraws y from the current parameters), whose
    stationary law is the prior; only validation tests use this.
    """
    if not iters > burn >= 0:
        raise ConfigError("need iters > burn >= 0")
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

    lam2_b, a_b = np.ones(p), np.ones(p)
    lam2_u, sig2_u, a_u, b_u = (np.ones(d_nl) for _ in range(4))
    sig2_b = sig2_e = b_beta = b_eps = 1.0
    if fixed_scales is not None:
        lam2_b = np.asarray(fixed_scales["lambda_beta"], dtype=float) ** 2
        lam2_u = np.asarray(fixed_scales.get("lambda_u", np.ones(d_nl)), dtype=float) ** 2
        sig2_b = float(fixed_scales["sigma_beta"]) ** 2
        sig2_u = np.asarray(fixed_scales.get("sigma_u", np.ones(d_nl)), dtype=float) ** 2
        sig2_e = float(fixed_scales["sigma_eps"]) ** 2

    # inverse-gamma shapes of the three update levels, in state order
    ks = np.array(spec.basis_sizes, dtype=int)
    shape_1 = np.concatenate((np.ones(p), 0.5 * (ks + 1), [0.5 * (n + 1)]))
    shape_2 = np.concatenate(
        (np.ones(p), [0.5 * (p + 1)], np.ones(d_nl), 0.5 * (ks + 1), [1.0])
    )
    u_starts = np.array([blk.start - (p + 1) for blk in u_blocks], dtype=np.intp)
    # prior variance of each non-intercept column: p linear terms, then the blocks
    col_var = np.concatenate((np.arange(p), np.repeat(np.arange(p, p + d_nl), ks)))

    keep = iters - burn
    out_coef = np.empty((keep, q))
    out_lb = np.empty((keep, p))
    out_lu = np.empty((keep, d_nl))
    out_sb = np.empty(keep)
    out_su = np.empty((keep, d_nl))
    out_se = np.empty(keep)
    clipped = var_floor_hits = sig2_e_floor_hits = 0

    # floor on prior variances: hard-shrunk blocks drive lambda^2 sigma^2
    # below the denormal range, and 1/0 would poison the precision matrix
    var_floor = 1e-290
    prior_prec = np.empty(q)
    prior_prec[0] = hyper.intercept_sd**-2
    # Q is rebuilt in one buffer every sweep and factorized in place; the
    # right-hand side and the noise buffers become the mean and L^-T z
    q_mat = np.empty((q, q), order="F")
    q_diag = q_mat.reshape(-1, order="F")[:: q + 1]
    rhs, z = np.empty(q), np.empty(q)
    # prior variances and the three inverse-gamma rate vectors are filled in
    # place through one view per group, in state order
    var = np.empty(p + d_nl)
    var_b, var_u = var[:p], var[p:]
    rate_1, rate_2, rate_3 = np.empty(shape_1.size), np.empty(shape_2.size), np.empty(1 + d_nl)
    rate_1b, rate_1u = rate_1[:p], rate_1[p:-1]
    rate_2ab, rate_2au = rate_2[:p], rate_2[p + 1 : p + 1 + d_nl]
    rate_2bu, rate_3u = rate_2[p + 1 + d_nl : -1], rate_3[1:]
    for it in range(iters):
        np.multiply(lam2_b, sig2_b, out=var_b)
        np.multiply(lam2_u, sig2_u, out=var_u)
        var_floor_hits += int(np.count_nonzero(var < var_floor))
        np.maximum(var, var_floor, out=var)
        np.divide(1.0, var[col_var], out=prior_prec[1:])
        np.divide(ctc, sig2_e, out=q_mat)
        q_diag += prior_prec
        np.divide(cty, sig2_e, out=rhs)
        rng.standard_normal(out=z)
        try:
            coef = _draw_coefficients(q_mat, rhs, z)
        except NumericalError as exc:
            raise NumericalError(f"covariance solve failed at iteration {it}: {exc}") from exc

        rss = residual_ss(coef)

        if fixed_scales is None:
            beta2 = coef[1 : p + 1] ** 2
            ss = np.add.reduceat(coef[p + 1 :] ** 2, u_starts)
            np.divide(1.0, a_b, out=rate_1b)
            rate_1b += beta2 / (2.0 * sig2_b)
            np.divide(1.0, a_u, out=rate_1u)
            rate_1u += ss / (2.0 * sig2_u)
            rate_1[-1] = 1.0 / b_eps + rss / 2.0
            draws = _inv_gamma(rng, shape_1, rate_1)
            clipped += _count_clipped(draws)
            lam2_b, lam2_u = draws[:p], draws[p:-1]
            # noise floor keeps ctc/sig2_e finite on noiseless inputs
            sig2_e = max(float(draws[-1]), 1e-100)
            sig2_e_floor_hits += int(draws[-1] < 1e-100)

            np.divide(1.0, lam2_b, out=rate_2ab)
            rate_2ab += 1.0
            rate_2[p] = 1.0 / b_beta + float(beta2 @ (1.0 / lam2_b)) / 2.0
            np.divide(1.0, lam2_u, out=rate_2au)
            rate_2au += 1.0
            np.divide(1.0, b_u, out=rate_2bu)
            rate_2bu += ss / (2.0 * lam2_u)
            rate_2[-1] = hyper.s_eps**-2 + 1.0 / sig2_e
            draws = _inv_gamma(rng, shape_2, rate_2)
            clipped += _count_clipped(draws)
            a_b, sig2_b = draws[:p], float(draws[p])
            a_u, sig2_u = draws[p + 1 : p + 1 + d_nl], draws[p + 1 + d_nl : -1]
            b_eps = float(draws[-1])

            rate_3[0] = hyper.s_beta**-2 + 1.0 / sig2_b
            np.divide(1.0, sig2_u, out=rate_3u)
            rate_3u += hyper.s_u**-2
            draws = _inv_gamma(rng, 1.0, rate_3)
            clipped += _count_clipped(draws)
            b_beta, b_u = float(draws[0]), draws[1:]

        if resample_response:
            y = c @ coef + math.sqrt(sig2_e) * rng.standard_normal(n)
            cty = c.T @ y
            residual_ss.set_response(y, cty)

        if it >= burn:
            t = it - burn
            out_coef[t] = coef
            out_lb[t] = lam2_b
            out_lu[t] = lam2_u
            out_sb[t] = sig2_b
            out_su[t] = sig2_u
            out_se[t] = sig2_e

    rel_blocks = [slice(blk.start - (p + 1), blk.stop - (p + 1)) for blk in u_blocks]
    diagnostics = dict(inv_gamma_clipped=clipped, var_floor_hits=var_floor_hits,
                       sig2_e_floor_hits=sig2_e_floor_hits)
    return GibbsChain(
        out_coef[:, 0], out_coef[:, 1 : p + 1], out_coef[:, p + 1 :], rel_blocks,
        *(np.sqrt(v, out=v) for v in (out_lb, out_lu, out_sb, out_su, out_se)),
        spec, iters, burn, int(seed), diagnostics,
    )


# ---------------------------------------------------------------------------
# Threshold statistics and classification
# ---------------------------------------------------------------------------


@dataclass
class ThresholdReport:
    """Per-predictor posterior shrinkage statistics and labels."""

    gamma_beta: list
    gamma_u: list  # None entries for zero-or-linear candidates
    labels: list | None = None
    border: float | None = None
    truth: tuple | None = None
    misclassification: float | None = None


def gamma_statistics(chain: GibbsChain, truth=None):
    """Posterior means of the per-block shrinkage factors, in (0, 1)."""
    if len(chain) == 0:
        raise ConfigError("chain has no retained draws")
    spec = chain.spec
    se2 = chain.sigma_eps**2
    gb = []
    for j in range(spec.p):
        v = chain.lambda_beta[:, j] ** 2 * chain.sigma_beta**2
        gb.append(float(np.mean(v / (se2 + v))))
    gu = [None] * spec.d_lin
    for i in range(spec.d_nl):
        v = chain.lambda_u[:, i] ** 2 * chain.sigma_u[:, i] ** 2
        gu.append(float(np.mean(v / (se2 + v))))
    return ThresholdReport(gamma_beta=gb, gamma_u=gu, truth=truth)


def classify(report: ThresholdReport, border=0.5, border_u=None):
    """Zero / linear / non-linear labels from the shrinkage statistics.

    A block counts as active when its statistic exceeds the border;
    ``border_u`` optionally overrides the border for the spline blocks
    (used with the 2-means data-driven threshold).
    """
    bu = border if border_u is None else border_u
    labels = []
    for gb, gu in zip(report.gamma_beta, report.gamma_u):
        if gu is None:
            labels.append("linear" if gb > border else "zero")
        elif gu > bu:
            labels.append("non-linear")
        else:
            labels.append("linear" if gb > border else "zero")
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
    if len(labels) != len(truth):
        raise LengthError(f"{len(labels)} labels vs {len(truth)} truths")
    count = sum(1 for a, b in zip(labels, truth) if a != b)
    return MisclassRate(count, len(labels))


def kmeans_threshold(values):
    """Exact optimal 2-cluster split of scalar values; returns the border.

    Minimizes within-cluster sum of squares over all sorted splits (the
    1-D k-means optimum) and returns the midpoint of the two cluster means.
    """
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size < 2 or vals[0] == vals[-1]:
        raise DegenerateError("need at least two distinct values")
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for t in range(len(chain)):
            row = [chain.beta0[t], *chain.beta[t], *chain.u[t]]
            row += [*chain.lambda_beta[t], *chain.lambda_u[t]]
            row += [chain.sigma_beta[t], *chain.sigma_u[t], chain.sigma_eps[t]]
            writer.writerow([repr(float(v)) for v in row])
