"""Special-function kernel tests.

Every closed-form routine is checked against an independent quadrature
oracle, against frozen values computed from those oracles, and against
classical identities (Kummer transform, series/asymptotic crossover,
corrected two-variable reduction vs. the raw double series).
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from ghs.config import SpecFunConfig
from ghs.errors import DomainError, NumericalError
from ghs.specfun import (
    exp_scaled_expint,
    exp_scaled_gen_exp_integral,
    exp_scaled_gen_exp_integral_quad,
    gen_exp_integral,
    gen_exp_integral_quad,
    kummer_1f1,
    kummer_1f1_quad,
    log_kummer_1f1,
    log_phi1,
    log_phi1_quadrature,
    phi1,
    phi1_double_series,
    phi1_quadrature,
    phi1_series_1f1,
)

# Frozen from the quadrature oracles in this module (see *_quad functions).
E1_AT_1 = 0.21938393439552023
SCALED_E2_AT_HALF = 0.5385446837581347
SCALED_E1_AT_1000 = 0.0009990019940238808
PHI1_CASE = 1.7828274812371612  # Phi1(1/2, 1, 2, 0.3, 1.5)


class TestGenExpIntegral:
    def test_value_at_zero_closed_form(self):
        # 1/(nu - 1) for every nu > 1
        assert gen_exp_integral(1.5, 0.0) == pytest.approx(2.0, rel=1e-12)
        assert gen_exp_integral(2.0, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert gen_exp_integral(4.0, 0.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_zero_argument_needs_order_above_one(self):
        with pytest.raises(DomainError):
            gen_exp_integral(1.0, 0.0)
        with pytest.raises(DomainError):
            gen_exp_integral(0.3, 0.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            gen_exp_integral(2.0, -0.5)

    def test_order_one_at_one(self):
        assert gen_exp_integral(1.0, 1.0) == pytest.approx(E1_AT_1, rel=1e-11)

    def test_scaled_large_argument_no_overflow(self):
        # e^x E_1(x) ~ (1/x)(1 - 1/x + ...) for large x
        assert exp_scaled_gen_exp_integral(1.0, 1000.0) == pytest.approx(
            SCALED_E1_AT_1000, rel=1e-11
        )
        assert math.isfinite(exp_scaled_gen_exp_integral(3.0, 1e6))

    def test_scaled_at_zero(self):
        assert exp_scaled_gen_exp_integral(1.5, 0.0) == pytest.approx(2.0)

    def test_scaled_matches_quadrature_value(self):
        assert exp_scaled_gen_exp_integral(2.0, 0.5) == pytest.approx(
            SCALED_E2_AT_HALF, rel=1e-11
        )

    def test_scaled_times_exp_matches_plain(self):
        for nu in [1.0, 1.5, 3.0]:
            for x in [1e-6, 0.2, 1.0, 7.0, 50.0]:
                scaled = exp_scaled_gen_exp_integral(nu, x)
                assert scaled * math.exp(-x) == pytest.approx(
                    gen_exp_integral(nu, x), rel=1e-11
                )

    def test_oracle_grid_20x20(self):
        # series/continued-fraction output vs the integral oracle
        nus = np.linspace(0.5, 10.0, 20)
        xs = np.logspace(-5, 2.5, 20)
        for nu in nus:
            for x in xs:
                a = exp_scaled_gen_exp_integral(float(nu), float(x))
                b = exp_scaled_gen_exp_integral_quad(float(nu), float(x))
                assert a == pytest.approx(b, rel=1e-10), (nu, x)

    def test_negative_order_downward_recurrence(self):
        for nu, x in [(-0.5, 0.3), (-1.5, 2.0), (-2.0, 0.4), (-3.2, 8.0)]:
            assert gen_exp_integral(nu, x) == pytest.approx(
                gen_exp_integral_quad(nu, x), rel=1e-10
            )

    def test_integration_by_parts_identity(self):
        # E_(mu-1)(x) = (e^-x - (mu-1) E_mu(x)) / x
        for mu, x in [(2.0, 0.7), (3.5, 1.9), (1.5, 4.0)]:
            lhs = gen_exp_integral(mu - 1.0, x)
            rhs = (math.exp(-x) - (mu - 1.0) * gen_exp_integral(mu, x)) / x
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestExpScaledKernel:
    """The array kernel against the quadrature oracle, entry by entry."""

    NUS = [-1.5, 0.5, 1.0, 1.5, 2.0, 2.5, 10.5, 50.5]
    XS = np.concatenate([np.logspace(-12, 6, 37), [1.0 - 1e-15, 1.0, 1.0 + 1e-15]])

    @pytest.mark.parametrize("nu", NUS)
    def test_against_quadrature_oracle(self, nu):
        oracle = np.array([exp_scaled_gen_exp_integral_quad(nu, float(x)) for x in self.XS])
        # the series and the continued fraction both stop with a margin of
        # 1e-3 rel_tol; test_against_mpmath holds the default config to 1e-14
        fine = SpecFunConfig(rel_tol=1e-15)
        assert exp_scaled_expint(nu, self.XS, fine) == pytest.approx(oracle, rel=1e-13)
        assert exp_scaled_expint(nu, self.XS) == pytest.approx(oracle, rel=2e-12)

    @pytest.mark.parametrize("nu", NUS)
    def test_against_mpmath(self, nu):
        with mp.workdps(40):
            exact = [float(mp.exp(x) * mp.expint(nu, x)) for x in map(mp.mpf, self.XS)]
        assert exp_scaled_expint(nu, self.XS) == pytest.approx(exact, rel=1e-14, abs=0)

    @pytest.mark.parametrize("nu", NUS)
    def test_zero_argument(self, nu):
        if nu > 1.0:
            assert exp_scaled_expint(nu, [0.0, 1.0])[0] == 1.0 / (nu - 1.0)
        else:
            with pytest.raises(DomainError):
                exp_scaled_expint(nu, [0.0, 1.0])

    def test_scalar_wrapper_matches_array_entries(self):
        for nu in self.NUS:
            arr = exp_scaled_expint(nu, self.XS.reshape(5, 8))
            assert arr.shape == (5, 8)
            scalars = [exp_scaled_gen_exp_integral(nu, float(x)) for x in self.XS]
            assert arr.ravel().tolist() == scalars

    def test_infinite_argument_limit_and_bad_input(self):
        assert exp_scaled_expint(2.5, [math.inf, 1e300]).tolist() == [0.0, pytest.approx(1e-300)]
        for bad in (math.nan, -1.0):
            with pytest.raises(DomainError):
                exp_scaled_expint(1.5, [1.0, bad])
            with pytest.raises(DomainError):
                exp_scaled_gen_exp_integral(1.5, bad)

    def test_empty_input(self):
        assert exp_scaled_expint(1.5, np.array([])).shape == (0,)


class TestKummer1F1:
    def test_unit_at_zero(self):
        assert kummer_1f1(0.7, 2.3, 0.0) == 1.0

    def test_exponential_closed_form(self):
        # 1F1(1, 2, x) = (e^x - 1)/x
        for x in [0.1, 1.0, 5.0, -3.0]:
            assert kummer_1f1(1.0, 2.0, x) == pytest.approx(
                math.expm1(x) / x, rel=1e-12
            )
        assert kummer_1f1(1.0, 2.0, 1.0) == pytest.approx(1.71828182845905, rel=1e-12)

    def test_nonpositive_integer_b_rejected(self):
        for b in [0.0, -1.0, -2.0]:
            with pytest.raises(DomainError):
                kummer_1f1(0.5, b, 1.0)

    def test_polynomial_case(self):
        # a = -2: 1 - 2x/b + x^2 (1)/(b(b+1))  via the terminating series
        a, b, x = -2.0, 3.0, 1.7
        expected = 1.0 + a * x / b + a * (a + 1) * x * x / (b * (b + 1) * 2)
        assert kummer_1f1(a, b, x) == pytest.approx(expected, rel=1e-13)

    def test_kummer_transform_identity(self):
        # 1F1(a,b,x) = e^x 1F1(b-a, b, -x) on a grid
        for a, b in [(0.5, 1.5), (1.0, 2.5), (2.3, 4.1), (0.25, 3.0)]:
            for x in [-8.0, -1.0, 0.3, 2.0, 9.0, 25.0]:
                lhs = kummer_1f1(a, b, x)
                rhs = math.exp(x) * kummer_1f1(b - a, b, -x)
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_growing_argument_approaches_asymptotic_form(self):
        # 1F1(1/2, 3, x) -> Gamma(3)/Gamma(1/2) e^x x^(-5/2) as x grows
        a, b = 0.5, 3.0
        lead = math.gamma(b) / math.gamma(a)
        ratios = []
        for x in [50.0, 200.0, 600.0]:
            val = kummer_1f1(a, b, x)
            ratios.append(val / (lead * math.exp(x) * x ** (a - b)))
        assert abs(ratios[0] - 1.0) < 0.05
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
        assert ratios[-1] == pytest.approx(1.0, abs=5e-3)

    def test_asymptotic_against_euler_oracle(self):
        # dispatch threshold crossed for |x| > 30 |b|
        for a, b, x in [(0.5, 1.5, 60.0), (0.75, 2.0, 80.0), (0.5, 1.5, -70.0)]:
            assert kummer_1f1(a, b, x) == pytest.approx(
                kummer_1f1_quad(a, b, x), rel=1e-10
            )

    def test_series_regime_against_euler_oracle(self):
        for a, b, x in [(0.7, 2.9, 7.0), (1.2, 3.3, -12.0), (0.5, 4.0, 20.0)]:
            assert kummer_1f1(a, b, x) == pytest.approx(
                kummer_1f1_quad(a, b, x), rel=1e-11
            )

    def test_log_form_consistency_and_reach(self):
        for a, b, x in [(0.5, 2.0, 5.0), (1.5, 3.5, 80.0), (2.0, 7.0, -30.0)]:
            assert math.exp(log_kummer_1f1(a, b, x)) == pytest.approx(
                kummer_1f1(a, b, x), rel=1e-12
            )
        # far beyond overflow territory
        big = log_kummer_1f1(0.5, 2.0, 20000.0)
        assert 19000.0 < big < 20000.0

    @pytest.mark.parametrize(
        "a, b, x",
        [
            (0.5, 200.0, -1e5),  # Gamma(b) and Gamma(b - a) both overflow
            (0.5, 250.0, -2e5),
            (199.0, 200.0, -1e5),  # 3.9e-623: underflows to 0
            (1.5, 0.5, -20.0),  # b - a = -1: exact terminating sum
            (2.5, 1.5, -100.0),
            (0.5, -2.5, -200.0),  # Gamma of negative arguments
            (-0.5, -1.5, 300.0),
            (-1.5, -0.5, 100.0),
            (1.5, 2.5, 100.0),
        ],
    )
    def test_asymptotic_against_mpmath(self, a, b, x):
        with mp.workdps(40):
            want = mp.hyp1f1(a, b, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kummer_1f1(a, b, x)
        if abs(want) < np.finfo(float).tiny:
            assert got == 0.0
        else:
            assert got == pytest.approx(float(want), rel=1e-12)

    def test_past_float_range_is_numerical_error(self):
        # 1F1(300, 400, 2e4) = 2.2e8509
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                kummer_1f1(300.0, 400.0, 2e4)

    def test_asymptotic_switch_config(self):
        # a generous switch forces the series even at large x; values agree
        lazy = SpecFunConfig(asymptotic_switch=500.0)
        assert kummer_1f1(0.5, 1.5, 60.0, lazy) == pytest.approx(
            kummer_1f1(0.5, 1.5, 60.0), rel=1e-10
        )


class TestPhi1:
    def test_x_zero_collapses_to_kummer(self):
        for alpha, gamma, y in [(0.5, 2.5, 1.7), (1.5, 3.0, -2.0)]:
            assert phi1(alpha, 1.0, gamma, 0.0, y) == pytest.approx(
                kummer_1f1(alpha, gamma, y), rel=1e-12
            )

    def test_y_zero_collapses_to_gauss_series(self):
        # Phi1(a, b, g, x, 0) = sum_m (a)_m (b)_m x^m / ((g)_m m!)
        def gauss_partial(a, b, g, x, terms=300):
            s = t = 1.0
            for k in range(terms):
                t *= (a + k) * (b + k) * x / ((g + k) * (k + 1.0))
                s += t
            return s

        for a, b, g, x in [(0.5, 1.0, 2.0, 0.4), (1.2, 2.0, 3.5, 0.6)]:
            assert phi1(a, b, g, x, 0.0) == pytest.approx(
                gauss_partial(a, b, g, x), rel=1e-11
            )

    def test_frozen_quadrature_case(self):
        assert phi1(0.5, 1.0, 2.0, 0.3, 1.5) == pytest.approx(PHI1_CASE, rel=1e-10)

    def test_paths_agree_on_overlap(self):
        cases = [
            (0.5, 1.0, 2.0, 0.3, 1.5),
            (0.5, 1.0, 2.0, 0.0, 2.0),
            (1.5, 1.0, 3.0, 0.7, -4.0),
            (0.5, 2.5, 3.0, 0.4, 0.8),
            (2.0, 1.0, 3.5, 0.6, 5.0),
            (0.5, 1.0, 1.5, 0.96, 3.0),
        ]
        for c in cases:
            a = phi1_series_1f1(*c)
            b = phi1_quadrature(*c)
            assert a == pytest.approx(b, rel=1e-8), c

    def test_corrected_reduction_matches_double_series(self):
        # The Kummer-series reduction keeps the second Pochhammer tied to the
        # x index; with beta != 1 that is numerically distinguishable from the
        # erroneous swapped form, and only the corrected one reproduces the
        # defining double series.
        cases = [
            (0.5, 2.5, 3.0, 0.4, 0.8),
            (0.7, 0.4, 2.2, 0.5, -1.2),
            (1.2, 3.0, 4.0, 0.25, 2.0),
        ]
        for c in cases:
            assert phi1_series_1f1(*c) == pytest.approx(
                phi1_double_series(*c), rel=1e-8
            )

    def test_swapped_pochhammer_variant_disagrees(self):
        # the same series with (beta)_n replaced by 1 (beta multiplying the
        # wrong index collapses to this at beta != 1) must NOT match
        alpha, beta, gamma, x, y = 0.5, 2.5, 3.0, 0.4, 0.8
        total, coef = 0.0, 1.0
        for n in range(400):
            total += coef * kummer_1f1(gamma - alpha, gamma + n, -y)
            coef *= (alpha + n) * x / ((gamma + n) * (n + 1.0))  # drops (beta)_n
        wrong = math.exp(y) * total
        right = phi1_double_series(alpha, beta, gamma, x, y)
        assert abs(wrong / right - 1.0) > 1e-3

    def test_log_form_stable_for_huge_y(self):
        for y in (20000.0, -20000.0):
            alpha = 0.5 if y > 0 else 1.5
            la = log_phi1(alpha, 1.0, 2.0, 0.75, y)
            lb = log_phi1_quadrature(alpha, 1.0, 2.0, 0.75, y)
            assert math.isfinite(la)
            assert la == pytest.approx(lb, abs=1e-9)

    def test_no_path_raises(self):
        with pytest.raises(DomainError):
            phi1(-0.5, 1.0, 0.2, 0.5, 1.0)

    def test_path_a_domain_errors(self):
        with pytest.raises(DomainError):
            phi1_series_1f1(0.5, 1.0, 2.0, 1.2, 1.0)
        with pytest.raises(DomainError):
            log_phi1(2.5, 1.0, 2.0, 0.5, 1.0)
