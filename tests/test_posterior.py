"""Posterior-quantity tests: marginal density, score, posterior mean and the
side-model shrinkage weight, each against independent oracles (quadrature of
the scale-mixture integrals, finite differences, alternate closed forms).
"""

import math

import mpmath as mp
import numpy as np
import pytest

import ghs.posterior
from ghs.errors import DimensionError, DomainError, NumericalError
from ghs.posterior import (
    _COARSE,
    _LEVELS,
    _V,
    _V_COARSE,
    _X,
    PosteriorModel,
    SideModel,
    _log_weight,
    _mixture_moments,
    _mixture_moments_fine,
    marginal_log_density,
    marginal_log_density_quad,
    posterior_mean,
    posterior_mean_mixture_oracle,
    score,
    side_model_shrinkage,
)
from ghs.risk import RiskScenario, _chi2_cdf, kl_ball_prior_mass, kl_ball_radius
from ghs.specfun import log_phi1
from oracles import cd_integrals, posterior_mean_moment_oracle

# log p(0) for d = 1, tau = 1: the mixture integral is exactly 1 there,
# so the value is the bare normalizing constant (2^-1 pi^3)^(-1/2).
MARGINAL_D1_TAU1_ORIGIN = 0.5 * math.log(2.0) - 1.5 * math.log(math.pi)


def point(d, r, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    return r * v / np.linalg.norm(v)


class TestMarginal:
    def test_origin_value_d1_tau1(self):
        assert marginal_log_density(PosteriorModel(1, 1.0), [0.0]) == pytest.approx(
            MARGINAL_D1_TAU1_ORIGIN, rel=1e-12
        )
        assert marginal_log_density_quad(PosteriorModel(1, 1.0), [0.0]) == pytest.approx(
            MARGINAL_D1_TAU1_ORIGIN, rel=1e-10
        )

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_closed_form_equals_quadrature(self, d, tau):
        model = PosteriorModel(d, tau)
        for r in [0.5, 2.0, 8.0]:
            y = point(d, r, seed=17 * d + int(10 * tau))
            assert marginal_log_density(model, y) == pytest.approx(
                marginal_log_density_quad(model, y), abs=1e-8
            )

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(3)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        model = PosteriorModel(3, 1.7)
        assert marginal_log_density(model, q @ y) == pytest.approx(
            marginal_log_density(model, y), rel=1e-11
        )

    def test_tau_regime_consistency(self):
        # the three code paths agree where they meet
        for d in [1, 3]:
            y = point(d, 2.0, seed=d)
            vals = [
                marginal_log_density(PosteriorModel(d, t), y)
                for t in (1.0 - 1e-6, 1.0, 1.0 + 1e-6)
            ]
            assert max(vals) - min(vals) < 1e-6 * max(1.0, abs(vals[1]))

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            marginal_log_density(PosteriorModel(2, 1.0), [1.0])

    def test_huge_radius_finite(self):
        for tau in [0.5, 1.0, 2.0]:
            y = np.array([500.0, 0.0])
            assert math.isfinite(marginal_log_density(PosteriorModel(2, tau), y))


class TestScore:
    def test_zero_at_origin(self):
        assert np.array_equal(score(PosteriorModel(3, 1.3), np.zeros(3)), np.zeros(3))

    def test_matches_finite_differences_of_quadrature_marginal(self):
        # central differences of the independent quadrature marginal
        rng = np.random.default_rng(11)
        cases = 0
        while cases < 30:
            d = int(rng.integers(1, 6))
            tau = float(rng.choice([0.5, 1.0, 2.0]))
            y = rng.standard_normal(d) * rng.uniform(0.3, 3.0)
            model = PosteriorModel(d, tau)
            h = 1e-5
            grad = np.zeros(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                grad[i] = (
                    marginal_log_density_quad(model, y + e)
                    - marginal_log_density_quad(model, y - e)
                ) / (2.0 * h)
            assert np.max(np.abs(score(model, y) - grad)) < 1e-5, (d, tau, y)
            cases += 1

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_tail_form(self, tau):
        # score ~ -(d+1) y / ||y||^2 for ||y|| = 200
        d = 2
        y = np.array([120.0, 160.0])
        target = -(d + 1.0) * y / float(y @ y)
        s = score(PosteriorModel(d, tau), y)
        assert np.linalg.norm(s - target) / np.linalg.norm(target) < 0.01

    def test_tail_vanishes(self):
        for d, tau in [(1, 1.0), (3, 0.5), (2, 2.0)]:
            model = PosteriorModel(d, tau)
            for r in [50.0, 100.0, 500.0]:
                y = point(d, r, seed=3)
                assert np.linalg.norm(score(model, y)) < 2.0 * (d + 1) / r

    def test_tau_regime_consistency(self):
        y = point(2, 1.5, seed=8)
        vals = [score(PosteriorModel(2, t), y) for t in (1 - 1e-6, 1.0, 1 + 1e-6)]
        spread = max(
            np.max(np.abs(a - b)) for a in vals for b in vals
        )
        assert spread < 1e-6

    def test_specific_small_tau_point(self):
        model = PosteriorModel(3, 0.5)
        y = np.array([1.0, -2.0, 0.5])
        h = 1e-5
        grad = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            grad[i] = (
                marginal_log_density_quad(model, y + e)
                - marginal_log_density_quad(model, y - e)
            ) / (2.0 * h)
        assert np.max(np.abs(score(model, y) - grad)) < 1e-5


class TestPosteriorMean:
    def test_zero_at_origin(self):
        assert np.array_equal(
            posterior_mean(PosteriorModel(2, 1.0), np.zeros(2)), np.zeros(2)
        )

    def test_identity_with_score(self):
        # y - E(theta|y) = -score(y), with the mean from the quadrature oracle
        # (posterior_mean is y + score by construction)
        for d, tau, r in [(1, 1.0, 2.0), (2, 2.0, 1.0), (3, 0.5, 4.0), (4, 1.0, 0.3)]:
            model = PosteriorModel(d, tau)
            y = point(d, r, seed=d + int(10 * tau))
            lhs = y - posterior_mean_mixture_oracle(model, y)
            rhs = -score(model, y)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_against_moment_oracle(self):
        # independent first-moment series (integration-by-parts counterpart)
        for d, tau, r in [(1, 1.0, 2.0), (2, 2.0, 1.0), (3, 1.0, 5.0)]:
            model = PosteriorModel(d, tau)
            y = point(d, r, seed=2 * d)
            assert np.max(
                np.abs(posterior_mean(model, y) - posterior_mean_moment_oracle(model, y))
            ) < 1e-9

    def test_against_mixture_quadrature_oracle(self):
        for d, tau in [(1, 0.5), (2, 2.0), (3, 1.0)]:
            model = PosteriorModel(d, tau)
            y = point(d, 1.5, seed=d)
            assert np.max(
                np.abs(posterior_mean(model, y) - posterior_mean_mixture_oracle(model, y))
            ) < 1e-9

    def test_specific_case_d2_tau2(self):
        model = PosteriorModel(2, 2.0)
        y = np.array([1.0, 1.0])
        assert posterior_mean(model, y) == pytest.approx(
            posterior_mean_mixture_oracle(model, y), abs=1e-10
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_miss_norm_at_100(self, d):
        y = np.zeros(d)
        y[0] = 100.0
        miss = np.linalg.norm(y - posterior_mean(PosteriorModel(d, 1.0), y))
        assert miss == pytest.approx((d + 1) / 100.0, rel=0.05)

    def test_miss_bounded_over_gaussian_cloud(self):
        # the miss ||y - E(theta|y)|| peaks at moderate radius and stays finite
        rng = np.random.default_rng(4)
        model = PosteriorModel(2, 1.0)
        ys = rng.standard_normal((10_000, 2)) * 2.0
        radii = np.linalg.norm(ys, axis=1)
        misses = np.array(
            [np.linalg.norm(y - posterior_mean(model, y)) for y in ys]
        )
        assert np.all(np.isfinite(misses))
        r_at_max = radii[np.argmax(misses)]
        assert 0.3 < r_at_max < 10.0
        # smaller clouds for the other prior scales
        for tau in (0.5, 2.0):
            model_t = PosteriorModel(2, tau)
            sub = ys[:1000]
            m = np.array([np.linalg.norm(y - posterior_mean(model_t, y)) for y in sub])
            assert np.all(np.isfinite(m))


class TestMixtureIntegrals:
    def test_closed_form_at_zero(self):
        # C(0, 1) with d = 1 integrates (1+l^2)^(-3/2) to exactly 1
        c_val, d_val = cd_integrals(0.0, 1.0, 1)
        assert c_val == pytest.approx(1.0, rel=1e-10)
        assert d_val < c_val

    def test_weight_integral_always_smaller(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = float(rng.uniform(0.0, 10.0))
            b = float(rng.uniform(0.1, 5.0))
            d = int(rng.integers(1, 6))
            c_val, d_val = cd_integrals(a, b, d)
            assert 0.0 < d_val < c_val

    def test_ratio_matches_hypergeometric_identity(self):
        # D/C = (d+1) Phi1(..., (d+4)/2, ...) / ((d+2) Phi1(..., (d+2)/2, ...))
        a, b, d = 2.0, 4.0, 3
        c_val, d_val = cd_integrals(a, b, d)
        x = 1.0 - 1.0 / b
        log_ratio = (
            math.log(d + 1.0)
            - math.log(d + 2.0)
            + log_phi1(0.5, 1.0, 0.5 * (d + 4), x, a)
            - log_phi1(0.5, 1.0, 0.5 * (d + 2), x, a)
        )
        assert d_val / c_val == pytest.approx(math.exp(log_ratio), rel=1e-8)


class TestSideModel:
    def test_weight_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(12):
            d = int(rng.integers(1, 5))
            model = SideModel(d, float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
            y = rng.standard_normal(d) * float(rng.uniform(0.0, 20.0))
            w = side_model_shrinkage(model, y)
            assert 0.0 < w < 1.0

    def test_parameterizations_agree(self):
        for d, t1, t2, r in [
            (2, 1.0, 1.0, 0.0),
            (1, 0.5, 2.0, 3.0),
            (3, 2.0, 0.3, 10.0),
            (1, 1.0, 1.0, 100.0),
        ]:
            model = SideModel(d, t1, t2)
            y = point(d, r, seed=d) if r > 0 else np.zeros(d)
            wx = side_model_shrinkage(model, y, "x")
            wl = side_model_shrinkage(model, y, "lambda")
            assert wx == pytest.approx(wl, abs=1e-9)

    def test_exact_beta_moment_at_origin(self):
        # at y = 0 with equal scales and d = 2 the weight is a beta-function
        # ratio equal to exactly 1/4
        assert side_model_shrinkage(SideModel(2, 1.0, 1.0), np.zeros(2)) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_large_signal_passes_through(self):
        w = side_model_shrinkage(SideModel(1, 1.0, 1.0), np.array([100.0]))
        assert w > 0.99

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            side_model_shrinkage(SideModel(1, 1.0, 1.0), [1.0], method="bogus")


@pytest.mark.parametrize(
    "fn", [marginal_log_density, score, posterior_mean, side_model_shrinkage]
)
def test_non_finite_input_rejected(fn):
    def model(t):
        return SideModel(2, 1.0, t) if fn is side_model_shrinkage else PosteriorModel(2, t)

    # 1e200 is finite, but ||y||^2 is not
    for bad in (math.nan, math.inf, -math.inf, 1e200):
        with pytest.raises(DomainError):
            fn(model(1.0), [1.0, bad])
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            model(bad)
    with pytest.raises(DomainError):
        SideModel(2, math.inf, 1.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: side_model_shrinkage(SideModel(1, 1e-200, 1.0), [1.0]), id="tau1^2=0"),
    pytest.param(lambda: side_model_shrinkage(SideModel(1, 1e-170, 1e170), [1.0]), id="b=inf"),
    pytest.param(lambda: side_model_shrinkage(SideModel(1, 1e170, 1e-170), [1.0]), id="b=0"),
    pytest.param(
        lambda: side_model_shrinkage(SideModel(2, 1e-160, 1.0), [1.0, 1.0]), id="tau1^2 subnormal"
    ),
    pytest.param(lambda: posterior_mean(PosteriorModel(1, 1e-170), [3.0]), id="tau^2=0"),
    pytest.param(lambda: posterior_mean(PosteriorModel(1, 1e170), [3.0]), id="tau^2=inf"),
    pytest.param(lambda: side_model_shrinkage(SideModel(1, 1e-100, 1e-100), [1e60]), id="a=inf"),
])
def test_scales_past_the_float_range_rejected(call):
    # tau^2, (tau2/tau1)^2 and ||y||^2 / (2 tau1^2) must be finite normal floats
    with pytest.raises(DomainError):
        call()


def test_non_integer_dimension_rejected():
    for bad in (1.5, 2.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            PosteriorModel(bad, 1.0)
        with pytest.raises(DomainError):
            SideModel(bad, 1.0, 1.0)


# Benchmark grid cells where the Phi1/1F1 series does not converge: the series
# argument 1 - tau^(+-2) is near 1, or ||y|| is large at tau >= 10
SERIES_FAILURE_CELLS = (
    [(d, 0.01, r) for d in (1, 3, 20) for r in (0.1, 3.0)]
    + [(d, 10.0, 300.0) for d in (1, 3, 20)]
    + [(d, 100.0, r) for d in (1, 3, 20) for r in (0.1, 3.0, 30.0, 300.0)]
)


@pytest.mark.parametrize("d, tau, r", SERIES_FAILURE_CELLS)
def test_former_series_failures_match_quadrature(d, tau, r):
    model = PosteriorModel(d, tau)
    y = point(d, r, seed=d)
    log_p = marginal_log_density(model, y)
    assert math.isfinite(log_p)
    assert abs(log_p - marginal_log_density_quad(model, y)) <= 1e-8 * max(1.0, abs(log_p))
    mean = posterior_mean(model, y)
    oracle = posterior_mean_mixture_oracle(model, y)
    assert np.all(np.isfinite(mean))
    assert np.linalg.norm(mean - oracle) <= 1e-8 * max(1.0, np.linalg.norm(oracle))


def test_lambda_space_oracles_refuse_an_underflowed_integral():
    # C = int e^(-a/q) q^(-d/2) / (1 + l^2) dl is below 1e-320 here: a typed
    # error, not a ZeroDivisionError or a log of 0; the kernel is fine
    model, y = PosteriorModel(100, 1e3), point(100, 1e4, seed=100)
    with pytest.raises(NumericalError):
        posterior_mean_mixture_oracle(model, y)
    with pytest.raises(NumericalError):
        marginal_log_density_quad(model, y)
    assert np.all(np.isfinite(posterior_mean(model, y)))
    assert math.isfinite(marginal_log_density(model, y))


def mp_mixture_moments(a, b, d):
    """(log int w, int w v / int w, int w x / int w) by mpmath at 20 digits.

    The x < 1/2 half is integrated in s = log x, with a breakpoint at the
    small-b scale x ~ b; the v < 1/2 half in s = log v, with breakpoints
    around the peak v* = (d+1)/(2a) and at the pole scale v ~ 1/b.  Plain
    quadrature in x that misses v* is off by up to 1e-2 for large d, a.
    """
    with mp.workdps(20):
        a, b, p = mp.mpf(a), mp.mpf(b), mp.mpf(d - 1) / 2
        half = -mp.log(2)

        def w(x, v):
            return v**p / (mp.sqrt(x) * (v + x / b)) * mp.exp(-a * v)

        def left(s):  # x = e^s, dx = x ds
            x = mp.exp(s)
            return x * w(x, -mp.expm1(s))

        def right(s):  # v = e^s, dx = v ds
            v = mp.exp(s)
            return v * w(-mp.expm1(s), v)

        def cut(points):
            return [-mp.inf] + sorted(q for q in points if q < half) + [half]

        s_star = mp.log((d + 1) / (2 * a)) if a > 0 else mp.mpf(0)
        sig = mp.sqrt(mp.mpf(2) / (d + 1))
        lpts = cut([mp.log(b)])
        rpts = cut([s_star - 2 * sig, s_star, s_star + 2 * sig, -mp.log(b)])
        # mp.quad stops on an absolute error estimate: scale the integrand to O(1)
        scale = 1 / max([left(q) for q in lpts[1:]] + [right(q) for q in rpts[1:]])
        c0 = mp.quad(lambda s: scale * left(s), lpts) + mp.quad(
            lambda s: scale * right(s), rpts
        )
        cv = mp.quad(lambda s: scale * left(s) * -mp.expm1(s), lpts) + mp.quad(
            lambda s: scale * right(s) * mp.exp(s), rpts
        )
        return float(mp.log(c0 / scale)), float(cv / c0), float((c0 - cv) / c0)


MP_GRID = [
    (d, tau, r, 1e-10)
    for d in (1, 3, 20)
    for tau in (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0)
    for r in (0.1, 3.0, 30.0, 300.0)
] + [
    (d, tau, r, 1e-8)
    for d in (1, 100)
    for tau in (1e-3, 1e3)
    for r in (0.0, 1e4)
]


@pytest.mark.parametrize("d, tau, r, tol", MP_GRID)
def test_mixture_kernel_against_mpmath(d, tau, r, tol):
    # log C, D/C and the side weight all come from the one kernel
    a, b = 0.5 * r * r, tau * tau
    log_int, dc, side = _mixture_moments(a, b, d)
    ref_log_int, ref_dc, ref_side = mp_mixture_moments(a, b, d)
    log_c, ref_log_c = (v - math.log(2.0 * tau) for v in (log_int, ref_log_int))
    assert abs(log_c - ref_log_c) <= tol * max(1.0, abs(ref_log_c))
    assert dc == pytest.approx(ref_dc, rel=tol)
    assert side == pytest.approx(ref_side, rel=tol)
    y = point(d, r, seed=d) if r > 0 else np.zeros(d)
    assert side_model_shrinkage(SideModel(d, 1.0, tau), y) == pytest.approx(ref_side, rel=tol)


def test_two_levels_match_all_nodes_on_a_sweep():
    # the h = 1/32 values, where kept, are as good as the 1,025-node sum
    rng = np.random.default_rng(11)
    m = 5000
    ds = rng.integers(1, 101, m).tolist()
    taus = (10.0 ** rng.uniform(-3.0, 3.0, m)).tolist()
    norms = (10.0 ** rng.uniform(-2.0, 4.0, m)).tolist()
    for i in range(0, m, 100):
        norms[i] = 0.0
    for d, tau, r in zip(ds, taus, norms):
        a, b = 0.5 * r * r, tau * tau
        log_int, dc, side = _mixture_moments(a, b, d)
        ref_log_int, ref_dc, ref_side = _mixture_moments_fine(a, b, d)
        # an error in log int w is the relative error of int w
        assert abs(log_int - ref_log_int) <= 1e-13, (d, tau, r)
        assert abs(dc - ref_dc) <= 1e-13 * ref_dc, (d, tau, r)
        assert abs(side - ref_side) <= 1e-13 * ref_side, (d, tau, r)


@pytest.mark.parametrize("d, tau, r, falls_back", [
    (3, 1.0, 2.0, False),
    (3, 1.0, 0.0, False),
    (100, 1e3, 1e4, True),
    (1, 1e-3, 1e4, True),
    (3, 10.0, 300.0, True),
])
def test_which_level_runs(monkeypatch, d, tau, r, falls_back):
    calls = []

    def counted(*args):
        calls.append(args)
        return _mixture_moments_fine(*args)

    monkeypatch.setattr(ghs.posterior, "_mixture_moments_fine", counted)
    y = point(d, r, seed=d) if r > 0 else np.zeros(d)
    posterior_mean(PosteriorModel(d, tau), y)
    assert len(calls) == int(falls_back)


# ---------------------------------------------------------------------------
# Bit-for-bit pins: the kernel against reference copies of its earlier form
# ---------------------------------------------------------------------------


def reference_mixture_moments(a, b, d):
    """``_mixture_moments`` before the h = 1/32 log-weights were cached, verbatim."""

    def _levels_agree(coarse, half):
        return abs(coarse - half) < 1e-7 * coarse

    log_f = _log_weight(b, d)[_COARSE] - a * _V_COARSE
    peak = float(log_f.max())
    log_f -= peak  # in place: at 257 nodes the calls, not the flops, cost the time
    total, int_v, int_x, half_1, half_v, half_x = (_LEVELS @ np.exp(log_f, out=log_f)).tolist()
    if not (
        _levels_agree(total, half_1)
        and _levels_agree(int_v, half_v)
        and _levels_agree(int_x, half_x)
    ):
        return _mixture_moments_fine(a, b, d)
    return peak + math.log(total), int_v / total, int_x / total


def reference_ball_mass(d, radius, center_sq):
    """The ball's prior mass as the half-Cauchy weights at all 1,025 nodes
    times the chi-square CDF there, written out."""
    span = radius * radius + center_sq
    b = d / span
    x, nc = np.outer((radius * radius, center_sq), b * _V / _X)
    return float(np.exp(_log_weight(b, 0)) @ _chi2_cdf(x, d, nc)) / (math.pi * math.sqrt(b))


def sweep_points(m=5000, seed=11):
    """The (a, b, d) of ``test_two_levels_match_all_nodes_on_a_sweep``."""
    rng = np.random.default_rng(seed)
    ds = rng.integers(1, 101, m).tolist()
    taus = (10.0 ** rng.uniform(-3.0, 3.0, m)).tolist()
    norms = (10.0 ** rng.uniform(-2.0, 4.0, m)).tolist()
    for i in range(0, m, 100):
        norms[i] = 0.0
    return [(0.5 * r * r, tau * tau, d) for d, tau, r in zip(ds, taus, norms)]


class TestReferenceKernel:
    """The cached h = 1/32 log-weights, ``np.dot`` and the inline level tests
    give the values of the reference copies bit for bit, as plain floats, and
    the KL-ball mass is the written-out sum over all nodes."""

    def test_moments_on_the_sweep(self, monkeypatch):
        fallbacks = []

        def counted(*args):
            fallbacks.append(args)
            return _mixture_moments_fine(*args)

        monkeypatch.setattr(ghs.posterior, "_mixture_moments_fine", counted)
        for a, b, d in sweep_points():
            got = _mixture_moments(a, b, d)
            assert got == reference_mixture_moments(a, b, d), (a, b, d)
            assert all(type(v) is float for v in got)
        assert len(fallbacks) > 100  # points where h = 1/32 is refused are in the sweep

    @pytest.mark.parametrize("d", [1, 2, 3, 20, 100])
    @pytest.mark.parametrize("tau", [1e-3, 0.3, 1.0, 10.0, 1e3])
    def test_posterior_mean_and_score_on_strided_and_contiguous_y(self, d, tau):
        model = PosteriorModel(d, tau)
        # each column of the stack is a y with ||y|| near 1e-2 .. 1e3; as a
        # view it is strided unless d = 1
        stack = np.random.default_rng(d).standard_normal((d, 8)) * np.logspace(-2, 3, 8)
        assert stack[:, 0].flags.c_contiguous == (d == 1)
        for y in [*stack.T, *np.ascontiguousarray(stack.T)]:
            dc = reference_mixture_moments(0.5 * float(y @ y), tau**2, d)[1]
            assert np.array_equal(posterior_mean(model, y), y - dc * y)
            assert np.array_equal(score(model, y), -dc * y)

    @pytest.mark.parametrize("d, theta0, n", [
        # the CI's `ghs risk --d-list 1,2 --n-grid 1e3,1e4`, at the origin
        (1, (), 1e3), (1, (), 1e4), (2, (), 1e3), (2, (), 1e4),
        # off the origin, and at d = 100
        (3, (1.0, 1.0, 1.0), 1e4), (3, (1.0, 1.0, 1.0), 1e6), (100, (1.0,) * 100, 2),
    ])
    def test_kl_ball_prior_mass(self, d, theta0, n):
        scenario = RiskScenario(d, 1.0, theta0)
        mass = kl_ball_prior_mass(scenario, n)
        norm = math.hypot(*scenario.theta0)
        assert mass == reference_ball_mass(d, kl_ball_radius(scenario, n), norm * norm)
        assert type(mass) is float
