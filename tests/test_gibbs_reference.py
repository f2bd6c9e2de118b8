"""The Gibbs sweep against a reference copy of an earlier, plainer loop.

``reference_gibbs_sampler`` is that loop kept verbatim, except that it
scales ``C'C`` and ``C'y`` by a multiply with ``1/sigma_eps^2`` as the
sampler does: three array-shape inverse-gamma draws per sweep
(``_inv_gamma`` here), a clip count per draw and six stores per retained
sweep.  With ``three_solve=True`` it divides instead and draws the
coefficients with dpotrs plus dtrtrs, the sampler's earlier form, which
the paper-spec chain must stay close to.  ``gibbs_sampler`` draws the
gamma variates of all three levels in one array-shape call, divides and
clamps each level once in one state buffer, counts the clamped draws only
when one fmin/fmax check finds any, and stores one row per sweep; it must
give the same chain bit for bit.  The generator test pins why it can: one
array-shape call consumes the generator exactly as one call per level.
"""

import math
import warnings

import numpy as np
import pytest

from ghs.errors import NumericalError
from ghs.gamsel import (
    AdditiveModelSpec,
    Hyper,
    _count_clipped,
    _draw_coefficients,
    _gamma_shapes,
    _ResidualSS,
    build_design,
    generate_data,
    gibbs_sampler,
)
from ghs.rng import make_rng

SCALES = ("lambda_beta", "lambda_u", "sigma_beta", "sigma_u", "sigma_eps")


def _inv_gamma(rng, shape, scale):
    """The reference loop's array-shape inverse-gamma draw; ``scale`` is
    overwritten.  (ghs.gamsel._inv_gamma takes drawn variates instead.)"""
    gamma = rng.standard_gamma(shape, scale.shape)
    np.divide(np.maximum(scale, 1e-300, out=scale), gamma, out=gamma)
    np.maximum(gamma, 1e-300, out=gamma)
    return np.minimum(gamma, 1e300, out=gamma)


def three_solve_draw(q_mat, rhs, z):
    """The coefficient draw as it stood before the two-solve form:
    Q^-1 rhs by dpotrs on the Cholesky factor, plus L^-T z by dtrtrs."""
    from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

    chol, info = dpotrf(q_mat, lower=1, clean=0, overwrite_a=1)
    assert info == 0
    mean, _ = dpotrs(chol, rhs, lower=1, overwrite_b=1)
    noise, _ = dtrtrs(chol, z, lower=1, trans=1, overwrite_b=1)
    mean += noise
    return mean


def reference_gibbs_sampler(dataset, spec, iters, burn, seed, fixed_scales=None,
                            resample_response=False, three_solve=False):
    """The sweep loop as it stood before the run-grouped draws; returns the
    squared scales and the coefficients as GibbsChain fields (scales as
    standard deviations) plus the diagnostics.  ``three_solve=True`` builds
    Q and the right-hand side by dividing by sigma_eps^2 and draws with
    three_solve_draw, as the sampler did before the two-solve draw."""
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
        if three_solve:
            np.divide(ctc, sig2_e, out=q_mat)
            np.divide(cty, sig2_e, out=rhs)
        else:
            np.multiply(ctc, 1.0 / sig2_e, out=q_mat)
            np.multiply(cty, 1.0 / sig2_e, out=rhs)
        q_diag += prior_prec
        rng.standard_normal(out=z)
        try:
            coef = (three_solve_draw if three_solve else _draw_coefficients)(q_mat, rhs, z)
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

    diagnostics = dict(inv_gamma_clipped=clipped, var_floor_hits=var_floor_hits,
                       sig2_e_floor_hits=sig2_e_floor_hits)
    fields = dict(beta0=out_coef[:, 0], beta=out_coef[:, 1 : p + 1], u=out_coef[:, p + 1 :])
    for name, v in zip(SCALES, (out_lb, out_lu, out_sb, out_su, out_se)):
        fields[name] = np.sqrt(v, out=v)
    return fields, diagnostics


PAPER = AdditiveModelSpec(n=2000, d_lin=10, d_nl=20, basis_size=6)
UNEVEN = AdditiveModelSpec(n=200, d_lin=1, d_nl=3, basis_size=(2, 5, 3))
LINEAR_ONLY = AdditiveModelSpec(n=10, d_lin=3, d_nl=0, basis_size=(), hyper=Hyper(intercept_sd=1.0))


@pytest.mark.parametrize("spec", [PAPER, UNEVEN, LINEAR_ONLY], ids=["paper", "uneven", "d_nl=0"])
def test_one_gamma_call_consumes_generator_like_level_draws(spec):
    p, d_nl = spec.p, spec.d_nl
    ks = np.array(spec.basis_sizes, dtype=int)
    # the reference loop's shape vectors of levels 1 and 2; level 3 is all 1
    shape_1 = np.concatenate((np.ones(p), 0.5 * (ks + 1), [0.5 * (spec.n + 1)]))
    shape_2 = np.concatenate((np.ones(p), [0.5 * (p + 1)], np.ones(d_nl), 0.5 * (ks + 1), [1.0]))
    shapes = _gamma_shapes(spec)
    assert np.array_equal(shapes, np.concatenate((shape_1, shape_2, np.ones(1 + d_nl))))
    # the sweep's three levels as the reference loop draws them
    want_rng, got_rng = np.random.default_rng(3), np.random.default_rng(3)
    want = np.concatenate((want_rng.standard_gamma(shape_1, shape_1.shape),
                           want_rng.standard_gamma(shape_2, shape_2.shape),
                           want_rng.standard_gamma(1.0, (1 + d_nl,))))
    assert np.array_equal(got_rng.standard_gamma(shapes), want)
    assert got_rng.random() == want_rng.random()


TINY_HYPERSCALES = ["s_u 1e-153", "s_eps 1e-153"]


def _case(name):
    if name == "uneven":
        return UNEVEN, generate_data(UNEVEN, 0.5, 4), dict(seed=1)
    if name == "d_nl=0 resampled":
        data = generate_data(LINEAR_ONLY, 1.0, 3, truth=("linear", "zero", "zero"))
        return LINEAR_ONLY, data, dict(seed=78, resample_response=True)
    if name == "noise floor":
        # noiseless data in the span of the design and a tiny noise
        # hyperscale: sigma_eps^2 draws fall below the 1e-100 floor, some
        # clipped at 1e-300
        spec = AdditiveModelSpec(n=200, d_lin=2, d_nl=0, basis_size=(),
                                 hyper=Hyper(s_eps=1e-150))
        return spec, generate_data(spec, 0.0, 2, truth=("linear", "linear")), dict(seed=6)
    if name in TINY_HYPERSCALES:
        # valid hyperscales just above the 1e-154 floor: draws overflow to
        # inf before the clamp, 600 (s_u) and 300 (s_eps) times
        spec = AdditiveModelSpec(n=400, d_lin=3, d_nl=2, basis_size=4,
                                 hyper=Hyper(**{name.split()[0]: 1e-153}))
        return spec, generate_data(spec, 4.0, 8, truth=("zero",) * 5), dict(seed=9)
    spec = AdditiveModelSpec(n=400, d_lin=3, d_nl=2, basis_size=4,
                             hyper=Hyper(s_beta=1e-150, s_u=1e-150))
    data = generate_data(spec, 4.0, 8, truth=("zero",) * 5)
    if name == "clipped":
        return spec, data, dict(seed=9)
    fixed = {"lambda_beta": [0.3, 1.0, 2.0, 1e-160, 5.0], "sigma_beta": 1.3, "sigma_eps": 0.9,
             "lambda_u": [0.5, 2.0], "sigma_u": [1.5, 0.2]}
    return spec, data, dict(seed=9, fixed_scales=fixed)


@pytest.mark.parametrize(
    "name",
    ["uneven", "d_nl=0 resampled", "noise floor", "clipped", "fixed scales", *TINY_HYPERSCALES],
)
def test_sweep_matches_reference_loop(name):
    spec, data, kw = _case(name)
    chain = gibbs_sampler(data, spec, iters=300, burn=20, **kw)
    with np.errstate(over="ignore"):  # the reference clamp, too, divides to inf first
        want, diagnostics = reference_gibbs_sampler(data, spec, iters=300, burn=20, **kw)
    for field, value in want.items():
        got = getattr(chain, field)
        assert got.shape == value.shape and np.array_equal(got, value), field
    assert chain.diagnostics == diagnostics
    if name in ("noise floor", "clipped"):
        assert diagnostics["inv_gamma_clipped"] > 0
    if name == "noise floor":
        assert diagnostics["sig2_e_floor_hits"] > 0


@pytest.mark.parametrize("name", TINY_HYPERSCALES)
def test_clamped_overflow_raises_no_warning(name):
    # a level's division overflows to inf before _inv_gamma clamps it; that
    # overflow is expected, so the sweep must not warn about it
    spec, data, kw = _case(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chain = gibbs_sampler(data, spec, iters=200, burn=0, **kw)
    assert chain.diagnostics["inv_gamma_clipped"] > 0


def test_paper_spec_chain_near_the_three_solve_draw():
    # the two-solve draw and the multiplied Q change only the rounding: the
    # sweep is contractive for a fixed noise stream, so the chains stay close.
    # Each scale is within 1e-12 relative; a coefficient within 1e-12 of the
    # largest, since the solves are accurate relative to the draw's norm
    data = generate_data(PAPER, 1.0, 5)
    chain = gibbs_sampler(data, PAPER, iters=200, burn=0, seed=2)
    want, diagnostics = reference_gibbs_sampler(data, PAPER, iters=200, burn=0, seed=2,
                                                three_solve=True)
    coef = np.column_stack([want["beta0"], want["beta"], want["u"]])
    for field, value in want.items():
        atol = 1e-12 * np.abs(coef).max() if field in ("beta0", "beta", "u") else 0.0
        np.testing.assert_allclose(getattr(chain, field), value, rtol=1e-12, atol=atol,
                                   err_msg=field)
    assert chain.diagnostics == diagnostics
