"""Posterior-quantity tests: marginal density, score, posterior mean and the
side-model shrinkage weight, each against independent oracles (quadrature of
the scale-mixture integrals, finite differences, alternate closed forms).
"""

import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import ghs.posterior
from ghs.errors import DimensionError, DomainError, NumericalError
from ghs.posterior import (
    PosteriorModel,
    SideModel,
    _log_weight,
    _mixture_moments,
    _tanh_sinh_nodes,
    marginal_log_density,
    marginal_log_density_quad,
    posterior_mean,
    posterior_mean_mixture_oracle,
    score,
    side_model_shrinkage,
)
from ghs.risk import RiskScenario, kl_ball_prior_mass, kl_ball_radius
from ghs.specfun import log_phi1
from oracles import ball_mass_mpmath, cd_integrals, posterior_mean_moment_oracle

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
    int w v and int w x are each integrated, and scaled, on their own, and
    int w is their sum: a moment taken as the difference of the other two
    cancels, and one scaled with int w stops early when it is far smaller.
    Checked: the far-tail closed form at ||y|| = 1e6 and 1e10 for d = 1 to
    100 (``test_mp_reference_in_the_far_tail``), and the same floats as a
    40-digit run with 13 breakpoints around each of v*, x ~ b and v ~ 1/b,
    over ``MP_GRID``, ||y|| = 1e4 to 1e12 at tau = 1 and d = 1 to 100, and
    tau = 1e-9 to 1e12 at d = 1 and 3 with ||y|| from 0 to 1e8.
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

        def integral(f, points):
            # mp.quad stops on an absolute error estimate: scale the integrand to O(1)
            scale = 1 / max(f(q) for q in points[1:])
            return mp.quad(lambda s: scale * f(s), points) / scale

        s_star = mp.log((d + 1) / (2 * a)) if a > 0 else mp.mpf(0)
        sig = mp.sqrt(mp.mpf(2) / (d + 1))
        lpts = cut([mp.log(b)])
        rpts = cut([s_star - 2 * sig, s_star, s_star + 2 * sig, -mp.log(b)])
        int_x = integral(lambda s: left(s) * mp.exp(s), lpts) + integral(
            lambda s: right(s) * -mp.expm1(s), rpts
        )
        int_v = integral(lambda s: left(s) * -mp.expm1(s), lpts) + integral(
            lambda s: right(s) * mp.exp(s), rpts
        )
        total = int_x + int_v
        return float(mp.log(total)), float(int_v / total), float(int_x / total)


@pytest.mark.parametrize("d", [1, 3, 20, 100])
def test_mp_reference_in_the_far_tail(d):
    # at tau = 1 the weight is (1 - v)^(-1/2) v^((d-1)/2) e^(-a v), so
    # int w = Gamma((d+1)/2) a^(-(d+1)/2) (1 + (d+1)/(4a) + ...) and
    # D/C = ((d+1)/(2a)) (1 + 1/(2a) + ...)
    for r in (1e6, 1e10):
        a = 0.5 * r * r
        log_int, dc, side = mp_mixture_moments(a, 1.0, d)
        tail = math.lgamma(0.5 * (d + 1)) - 0.5 * (d + 1) * math.log(a)
        assert log_int == pytest.approx(tail, rel=1e-15, abs=(d + 1) / (2 * a))
        assert dc == pytest.approx((d + 1) / (2 * a), rel=1e-15 + 1 / a)
        assert side == pytest.approx(1 - (d + 1) / (2 * a), rel=1e-15)


def far_tail_moments(a, d, terms=2):
    """(log int w, D/C, side weight) at tau = 1 by Watson's lemma, and a bound.

    At tau = 1 the weight is (1 - v)^(-1/2) v^((d-1)/2) e^(-a v), and
    (1 - v)^(-1/2) = sum_n c_n v^n with c_n = (1/2)_n / n!, so int w v^j is
    sum_n c_n Gamma(k + j + n) a^(-(k + j + n)), k = (d+1)/2, up to the
    e^(-a)-small part past v = 1.  The first dropped term, relative to the
    sum, bounds the error of the first ``terms`` terms; mpmath at 30 digits.
    """
    with mp.workdps(30):
        a, k = mp.mpf(a), mp.mpf(d + 1) / 2
        series = [
            [mp.rf(0.5, n) / mp.factorial(n) * mp.gamma(k + j + n) / a ** (k + j + n)
             for n in range(terms + 1)]
            for j in (0, 1)
        ]
        int_1, int_v = (mp.fsum(s[:terms]) for s in series)
        bound = max(series[0][terms] / int_1, series[1][terms] / int_v)
        return float(mp.log(int_1)), float(int_v / int_1), float(1 - int_v / int_1), float(bound)


# mp_mixture_moments up to ||y|| = 1e12, far_tail_moments past it, at the
# points of posterior_sweep_points(); written by make_posterior_sweep.py beside it
POSTERIOR_SWEEP = Path(__file__).with_name("data") / "posterior_sweep.json"
# points where the former kernel, with a fixed 1,025-node level behind the
# 257-node one, was silently wrong: by 4.8e-6 in log p at d = 20, 1e10; by
# 2.2e-5 and 4.4e-3 at d = 100, 1e6 and 1e8; and by 1.5e-10 and 1.5e-8 at
# d = 2, tau^2 = 1e40, 1e9 and 1e11, where the weight passes the last node
FORMER_SILENT_ERRORS = [(20, 1.0, 1e10), (100, 1.0, 1e6), (100, 1.0, 1e8), (2, 1e20, 1e9), (2, 1e20, 1e11)]


def posterior_sweep_points():
    """The seeded (d, tau, ||y||) of the frozen posterior sweep.

    1,800 log-uniform points: d in 1..100, tau^2 over the range the kernel
    accepts (1e-17 to 1e28 at d = 1, to 1e308 above), ||y|| in [1e-2, 1e12],
    every 50th at ||y|| = 0; then 200 at tau = 1 with ||y|| in [1e12, 1e150];
    then FORMER_SILENT_ERRORS.
    """
    rng = np.random.default_rng(36)
    points = []
    for i in range(1800):
        d = round(10 ** rng.uniform(0.0, 2.0))
        tau = math.sqrt(10 ** rng.uniform(-17.0, 28.0 if d == 1 else 308.0))
        r = 10 ** rng.uniform(-2.0, 12.0)
        points.append((d, tau, 0.0 if i % 50 == 0 else r))
    for _ in range(200):
        points.append((round(10 ** rng.uniform(0.0, 2.0)), 1.0, 10 ** rng.uniform(12.0, 150.0)))
    return points + FORMER_SILENT_ERRORS


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


@pytest.mark.parametrize("d, tau, r", [
    (1, 3.2e-9, 1.0), (3, 3.2e-9, 1.0), (100, 3.2e-9, 1.0),  # b = 1.02e-17
    (1, 9.9e13, 1.0), (1, 9.9e13, 1e4),  # b = 9.8e27
    (2, 1e150, 1.0), (3, 1e15, 1e4),  # no upper edge at d >= 2
])
def test_prior_scales_at_the_reach_of_the_nodes(d, tau, r):
    # just inside the edges on b = tau^2 the kernel holds to 1e-10
    a, b = 0.5 * r * r, tau * tau
    log_int, dc, side = _mixture_moments(a, b, d)
    ref_log_int, ref_dc, ref_side = mp_mixture_moments(a, b, d)
    assert log_int == pytest.approx(ref_log_int, rel=1e-10, abs=1e-10)
    assert dc == pytest.approx(ref_dc, rel=1e-10)
    assert side == pytest.approx(ref_side, rel=1e-10)


@pytest.mark.parametrize("d, tau", [
    (1, 3.1e-9), (3, 3.1e-9), (100, 3.1e-9), (1, 1e-30),  # b below 1e-17
    (1, 1.01e14), (1, 1e20), (1, 1e30),  # b above 1e28 at d = 1
])
def test_prior_scales_past_the_reach_of_the_nodes(d, tau):
    # there the nodes miss more than 1e-10 of the weight: NumericalError, not a
    # value off by 1e-7 (tau = 1e-12), 26.5 in log C (1e-30) or 60 % in D/C (1e30)
    y = point(d, 1.0, seed=d)
    for call in (marginal_log_density, score, posterior_mean):
        with pytest.raises(NumericalError):
            call(PosteriorModel(d, tau), y)
    with pytest.raises(NumericalError):
        side_model_shrinkage(SideModel(d, 1.0, tau), y)


@pytest.mark.parametrize("d", [1, 3])
def test_far_tail_to_the_reach_of_the_nodes(d):
    # p(y) -> (2/pi) (2 pi)^(-d/2) Gamma((d+1)/2) 2^((d-1)/2) ||y||^(-d-1), up to
    # O(d^2/||y||^2) relative; the weight's peak, v ~ (d+1)/||y||^2, passes the
    # last fixed node (v = 5.7e-38) near ||y|| = 1e19, and the window nodes
    # follow it until ||y||^2 leaves the float range
    model = PosteriorModel(d)
    for r in (1e6, 1e8, 1e10, 6e12, 1e20, 1e30, 1e100, 1e150):
        y = point(d, r, seed=d)
        tail = (math.log(2 / math.pi) - 0.5 * d * math.log(2 * math.pi)
                + math.lgamma(0.5 * (d + 1)) + 0.5 * (d - 1) * math.log(2) - (d + 1) * math.log(r))
        assert marginal_log_density(model, y) == pytest.approx(tail, abs=1e-8)
        assert score(model, y) == pytest.approx(-(d + 1) / (r * r) * y, rel=1e-8)
        assert posterior_mean(model, y) == pytest.approx((1 - (d + 1) / (r * r)) * y, rel=1e-8)
        side = side_model_shrinkage(SideModel(d, 1.0, 1.0), y)
        assert side == pytest.approx(1 - (d + 1) / (r * r), rel=1e-8)


def test_kernel_refuses_an_a_past_the_float_range():
    # cesaro_risk_mc builds a under errstate(over="ignore"), so an ||y||^2 past
    # the float range reaches the kernel as inf: a NumericalError, no NaN
    for d in (1, 3, 100):
        with pytest.raises(NumericalError):
            _mixture_moments(math.inf, 1.0, d)
    # the largest finite a gets a value: D/C = (d+1)/(2a) to O(1/a)
    log_int, dc, side = _mixture_moments(sys.float_info.max, 1.0, 3)
    assert log_int == pytest.approx(-2.0 * math.log(sys.float_info.max), rel=1e-15)
    assert dc == pytest.approx(2.0 / sys.float_info.max, rel=1e-12)
    assert side == 1.0


def test_frozen_posterior_sweep():
    # every point is in the kernel's domain, where no point may raise: those up
    # to ||y|| = 1e12 were accepted before, and at tau = 1 every ||y|| whose
    # square is finite gets a value
    table = json.loads(POSTERIOR_SWEEP.read_text())
    assert [tuple(row[:3]) for row in table] == posterior_sweep_points()
    for d, tau, r, ref_log_int, ref_dc, ref_side in table:
        log_int, dc, side = _mixture_moments(0.5 * r * r, tau * tau, d)
        assert abs(log_int - ref_log_int) <= 1e-10, (d, tau, r)
        assert abs(dc - ref_dc) <= 1e-10 * ref_dc, (d, tau, r)
        assert abs(side - ref_side) <= 1e-10 * ref_side, (d, tau, r)
    # the table against its references, on a few rows of each
    for d, tau, r, *want in table[1:4] + table[-8:-5]:
        a = 0.5 * r * r
        got = mp_mixture_moments(a, tau * tau, d) if r <= 1e12 else far_tail_moments(a, d)[:3]
        assert list(got) == want


@pytest.mark.parametrize("d, tau, r", FORMER_SILENT_ERRORS)
def test_former_silent_errors_against_mpmath(d, tau, r):
    # the frozen mpmath values of these points, through the public entry points
    (ref_log_int, ref_dc, ref_side), = (
        row[3:] for row in json.loads(POSTERIOR_SWEEP.read_text()) if tuple(row[:3]) == (d, tau, r)
    )
    y = point(d, r, seed=d)
    model = PosteriorModel(d, tau)
    log_c = ref_log_int - math.log(2.0 * tau)
    log_p = -0.5 * ((d - 2) * math.log(2.0) + (d + 2) * math.log(math.pi)) + log_c
    assert abs(marginal_log_density(model, y) - log_p) <= 1e-10
    assert score(model, y) == pytest.approx(-ref_dc * y, rel=1e-10)
    assert side_model_shrinkage(SideModel(d, 1.0, tau), y) == pytest.approx(ref_side, rel=1e-10)


# the 1,025 nodes of step 1/128 on |t| <= 4, and the coarse level's every 4th node of them, with
# its moments at h = 1/32 in rows 0-2 and at h = 1/16 in rows 3-5 (the step factors 4 and 8)
_NODES = _tanh_sinh_nodes(np.arange(-4.0, 4.0 + 0.5 / 128, 1.0 / 128), 1.0 / 128)
_V = _NODES[1]
_COARSE = slice(None, None, 4)
_V_COARSE = _V[_COARSE]
_LEVELS = 4.0 * _NODES[:6, _COARSE]
_LEVELS[3:, 1::2] = 0.0


def all_nodes_moments(a, b, d):
    """The moments summed over all 1,025 fixed nodes (h = 1/128), written out."""
    log_f = _log_weight(_NODES, b, d) - a * _V
    peak = float(log_f.max())
    total, int_v, int_x = (_NODES[:3] @ np.exp(log_f - peak)).tolist()
    return peak + math.log(total), int_v / total, int_x / total


def test_two_levels_match_all_nodes_on_a_sweep(monkeypatch):
    # the h = 1/32 values, where kept, are as good as the 1,025-node sum
    windows = []
    window_nodes = ghs.posterior._window_nodes

    def counted(*args):
        windows.append(args)
        return window_nodes(*args)

    monkeypatch.setattr(ghs.posterior, "_window_nodes", counted)
    rng = np.random.default_rng(11)
    m = 5000
    ds = rng.integers(1, 101, m).tolist()
    taus = (10.0 ** rng.uniform(-3.0, 3.0, m)).tolist()
    norms = (10.0 ** rng.uniform(-2.0, 4.0, m)).tolist()
    for i in range(0, m, 100):
        norms[i] = 0.0
    for d, tau, r in zip(ds, taus, norms):
        a, b = 0.5 * r * r, tau * tau
        refused = len(windows)
        log_int, dc, side = _mixture_moments(a, b, d)
        if len(windows) > refused:
            continue  # the window's values are checked against mpmath
        ref_log_int, ref_dc, ref_side = all_nodes_moments(a, b, d)
        # an error in log int w is the relative error of int w
        assert abs(log_int - ref_log_int) <= 1e-13, (d, tau, r)
        assert abs(dc - ref_dc) <= 1e-13 * ref_dc, (d, tau, r)
        assert abs(side - ref_side) <= 1e-13 * ref_side, (d, tau, r)
    assert 100 < len(windows) < m // 2


@pytest.mark.parametrize("d, tau, r, falls_back", [
    (3, 1.0, 2.0, False),
    (3, 1.0, 0.0, False),
    (100, 1e3, 1e4, True),
    (1, 1e-3, 1e4, True),
    (3, 10.0, 300.0, True),
])
def test_which_level_runs(monkeypatch, d, tau, r, falls_back):
    calls = []
    window_nodes = ghs.posterior._window_nodes

    def counted(*args):
        calls.append(args)
        return window_nodes(*args)

    monkeypatch.setattr(ghs.posterior, "_window_nodes", counted)
    y = point(d, r, seed=d) if r > 0 else np.zeros(d)
    posterior_mean(PosteriorModel(d, tau), y)
    assert len(calls) == int(falls_back)


# ---------------------------------------------------------------------------
# Bit-for-bit pins: the kernel against reference copies of its earlier form
# ---------------------------------------------------------------------------


def reference_mixture_moments(a, b, d):
    """``_mixture_moments`` before the h = 1/32 log-weights were cached, verbatim
    where the h = 1/32 level is kept."""

    def _levels_agree(coarse, half):
        return abs(coarse - half) < 1e-7 * coarse

    log_f = _log_weight(_NODES, b, d)[_COARSE] - a * _V_COARSE
    peak = float(log_f.max())
    log_f -= peak  # in place: at 257 nodes the calls, not the flops, cost the time
    total, int_v, int_x, half_1, half_v, half_x = (_LEVELS @ np.exp(log_f, out=log_f)).tolist()
    if not (
        _levels_agree(total, half_1)
        and _levels_agree(int_v, half_v)
        and _levels_agree(int_x, half_x)
    ):
        # refused: the window rule, which the mpmath sweeps check instead
        return _mixture_moments(a, b, d)
    return peak + math.log(total), int_v / total, int_x / total


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
    """The cached h = 1/32 log-weights, the peak by argmax, ``dot`` and the
    inline level tests give the values of the reference copies bit for bit,
    as plain floats, on both levels; the KL-ball mass is the mpmath shell
    integral's to 1e-12 on the same cases."""

    def test_moments_on_the_sweep(self, monkeypatch):
        fallbacks = []
        window_nodes = ghs.posterior._window_nodes

        def counted(*args):
            fallbacks.append(args)
            return window_nodes(*args)

        monkeypatch.setattr(ghs.posterior, "_window_nodes", counted)
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
        expected = ball_mass_mpmath(d, math.hypot(*scenario.theta0), kl_ball_radius(scenario, n))
        assert mass == pytest.approx(float(expected), rel=1e-12, abs=0)
        assert type(mass) is float
