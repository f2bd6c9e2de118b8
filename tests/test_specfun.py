"""Special-function kernel tests.

E_nu is checked against mpmath's ``expint``.  1F1 and Phi1
are checked against mpmath (``hyp1f1``, ``hyper2d`` and quadrature of the
Euler integral), against a frozen mpmath sweep, and against classical
identities (Kummer transform, the two-variable reduction to a Kummer-function
series vs. the double series).
"""

import json
import math
import time
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from ghs.errors import DomainError, NumericalError
from ghs.specfun import (
    exp_scaled_expint,
    exp_scaled_gen_exp_integral,
    gen_exp_integral,
    kummer_1f1,
    log_kummer_1f1,
    log_phi1,
    phi1,
)

# Frozen from a former E_nu quadrature (mp.expint agrees to 2e-16) and, for
# PHI1_CASE, a former Phi1 quadrature (mp.hyper2d agrees to 4e-16).
E1_AT_1 = 0.21938393439552023
SCALED_E2_AT_HALF = 0.5385446837581347
SCALED_E1_AT_1000 = 0.0009990019940238808
PHI1_CASE = 1.7828274812371612  # Phi1(1/2, 1, 2, 0.3, 1.5)
# mp.hyp1f1 at 40 digits on the points of kummer_sweep_points(300)
KUMMER_SWEEP = Path(__file__).with_name("data") / "log_kummer_sweep.json"


def mp_log_1f1(a, b, x):
    """log 1F1(a, b, x) by mpmath at 40 digits; for x < 0 through the Kummer
    transform, whose series has no cancellation."""
    with mp.workdps(40):
        if x < 0:
            return float(x + mp.log(mp.hyp1f1(b - a, b, -x, maxterms=10**6)))
        return float(mp.log(mp.hyp1f1(a, b, x, maxterms=10**6)))


def kummer_sweep_points(n):
    """n seeded (a, b, x): b log-uniform in [0.05, 1e4], a uniform in
    (0, b), |x| log-uniform in [1e-2, 1e5], either sign."""
    rng = np.random.default_rng(2024)
    points = []
    for _ in range(n):
        b = float(10 ** rng.uniform(math.log10(0.05), 4))
        a = float(b * (1 - rng.uniform()))
        x = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-2, 5))
        points.append((a, b, x))
    return points


def mp_phi1_double_series(alpha, beta, gamma, x, y):
    """Phi1 by mpmath's double series at 30 digits."""
    with mp.workdps(30):
        return float(mp.hyper2d({"m+n": [alpha], "m": [beta]}, {"m+n": [gamma]}, x, y))


def mp_log_phi1(alpha, beta, gamma, x, y):
    """log Phi1 by mpmath quadrature of its Euler integral at 30 digits, in
    u = -log(1 - t), with breakpoints around the integrand's peak u*."""
    with mp.workdps(30):
        alpha, beta, gamma, x, y = map(mp.mpf, (alpha, beta, gamma, x, y))
        c = gamma - alpha

        def h(u):  # log of the integrand in u, less y
            t = -mp.expm1(-u)
            return (alpha - 1) * mp.log(t) - c * u - beta * mp.log(1 - x * t) - y * mp.exp(-u)

        peak = max((mp.mpf(10) ** (k / mp.mpf(20)) for k in range(-400, 61)), key=h)
        top = h(peak)
        cuts = [peak * f for f in (2**-20, 2**-8, 0.25, 0.5, 0.8, 1, 1.25, 2, 4, 16)]
        integral = mp.quad(lambda u: mp.exp(h(u) - top), [0, *cuts, mp.inf])
        lead = mp.loggamma(gamma) - mp.loggamma(alpha) - mp.loggamma(c)
        return float(lead + y + top + mp.log(integral))


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
        # series/continued-fraction output vs mpmath
        nus = np.linspace(0.5, 10.0, 20)
        xs = np.logspace(-5, 2.5, 20)
        for nu in nus:
            for x in xs:
                a = exp_scaled_gen_exp_integral(float(nu), float(x))
                with mp.workdps(30):
                    b = float(mp.exp(x) * mp.expint(nu, x))
                assert a == pytest.approx(b, rel=1e-10), (nu, x)

    def test_negative_order_downward_recurrence(self):
        for nu, x in [(-0.5, 0.3), (-1.5, 2.0), (-2.0, 0.4), (-3.2, 8.0)]:
            with mp.workdps(30):
                exact = float(mp.expint(nu, x))
            assert gen_exp_integral(nu, x) == pytest.approx(exact, rel=1e-10)

    def test_integration_by_parts_identity(self):
        # E_(mu-1)(x) = (e^-x - (mu-1) E_mu(x)) / x
        for mu, x in [(2.0, 0.7), (3.5, 1.9), (1.5, 4.0)]:
            lhs = gen_exp_integral(mu - 1.0, x)
            rhs = (math.exp(-x) - (mu - 1.0) * gen_exp_integral(mu, x)) / x
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestExpScaledKernel:
    """The array kernel against mpmath, entry by entry."""

    NUS = [-1.5, 0.5, 1.0, 1.5, 2.0, 2.5, 10.5, 50.5]
    XS = np.concatenate([np.logspace(-12, 6, 37), [1.0 - 1e-15, 1.0, 1.0 + 1e-15]])

    @pytest.mark.parametrize("nu", NUS)
    def test_against_mpmath(self, nu):
        with mp.workdps(40):
            exact = [float(mp.exp(x) * mp.expint(nu, x)) for x in map(mp.mpf, self.XS)]
        assert exp_scaled_expint(nu, self.XS) == pytest.approx(exact, rel=1e-14, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_orders_near_an_integer_against_mpmath(self, n):
        # the series' Gamma term and its k = n-1 term cancel as nu -> n
        xs = np.array([1e-6, 0.01, 0.5, 0.9])
        for eps in [1e-10, 2e-9, -2e-9, 1e-8, -1e-8, 1e-6, -1e-3, 0.049, -0.051]:
            nu = n + eps
            with mp.workdps(50):
                exact = [float(mp.exp(x) * mp.expint(nu, x)) for x in map(mp.mpf, xs)]
            assert exp_scaled_expint(nu, xs) == pytest.approx(exact, rel=1e-13, abs=0), nu

    @pytest.mark.parametrize("nu", [1e-10, 5e-10, -1.0 + 3e-10])
    def test_orders_near_a_nonpositive_integer_against_mpmath(self, nu):
        # exp(x) E_0(x) = 1/x, but these orders differ from it by up to
        # 2e-9 relative (100 against 99.99999979607 at nu = 5e-10, x = 0.01)
        xs = np.array([0.01, 0.5, 3.0])
        with mp.workdps(50):
            exact = [float(mp.exp(x) * mp.expint(nu, x)) for x in map(mp.mpf, xs)]
        assert exp_scaled_expint(nu, xs) == pytest.approx(exact, rel=1e-14, abs=0)

    @pytest.mark.parametrize("nu", [172.0, 308.03, 501.0, 1e4])
    def test_large_orders_near_an_integer_against_mpmath(self, nu):
        # past n - 1 = 170, (n-1)! is not a float: x^(n-1)/(n-1)! raised a
        # raw OverflowError, and psi(n) took O(n) terms
        for x in (1e-3, 0.5):
            with mp.workdps(40):
                want = float(mp.expint(nu, x))
            assert gen_exp_integral(nu, x) == pytest.approx(want, rel=1e-12, abs=0), (nu, x)

    def test_huge_order_returns_at_once(self):
        # the sum over k < n behind psi(n) never returned at n = 1e300
        start = time.perf_counter()
        value = gen_exp_integral(1e300, 0.5)
        assert time.perf_counter() - start < 1.0
        assert value == pytest.approx(math.exp(-0.5) / 1e300, rel=1e-12)

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

    @pytest.mark.parametrize("nu, x", [
        (math.nan, 1.0), (-math.inf, 1.0), (math.inf, 1.0), (math.nan, math.inf),
    ])
    def test_non_finite_order_rejected(self, nu, x):
        # a NaN order raised a raw ValueError, -inf a raw OverflowError
        for f in (gen_exp_integral, exp_scaled_gen_exp_integral):
            with pytest.raises(DomainError):
                f(nu, x)
        with pytest.raises(DomainError):
            exp_scaled_expint(nu, [x])


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

    @pytest.mark.parametrize("a, b, x", [
        (1.0, 2.0, math.inf), (1.0, 2.0, -math.inf), (1.0, 2.0, math.nan),
        (math.inf, 2.0, 1.0), (math.nan, 2.0, 1.0), (1.0, math.inf, 1.0), (1.0, math.nan, 1.0),
    ])
    def test_non_finite_arguments_rejected(self, a, b, x):
        # these returned NaN with RuntimeWarnings, overflowed or did not converge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (kummer_1f1, log_kummer_1f1):
                with pytest.raises(DomainError):
                    f(a, b, x)

    def test_polynomial_case(self):
        # a = -2: 1 - 2x/b + x^2 (1)/(b(b+1))  via the terminating series
        a, b, x = -2.0, 3.0, 1.7
        expected = 1.0 + a * x / b + a * (a + 1) * x * x / (b * (b + 1) * 2)
        assert kummer_1f1(a, b, x) == pytest.approx(expected, rel=1e-13)
        # 1F1(-1, 2, x) = 1 - x/2: its root is not a cancelled sum
        assert kummer_1f1(-1.0, 2.0, 2.0) == 0.0

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
        # |x| >= b: the Euler-integral kernel
        for a, b, x in [(0.5, 1.5, 60.0), (0.75, 2.0, 80.0), (0.5, 1.5, -70.0)]:
            with mp.workdps(40):
                want = float(mp.hyp1f1(a, b, x))
            assert kummer_1f1(a, b, x) == pytest.approx(want, rel=1e-12)

    def test_series_regime_against_euler_oracle(self):
        # |x| >= b takes the kernel, |x| < b the Taylor series
        for a, b, x in [(0.7, 2.9, 7.0), (1.2, 3.3, -12.0), (0.5, 4.0, 20.0), (0.7, 2.9, -2.0)]:
            with mp.workdps(40):
                want = float(mp.hyp1f1(a, b, x))
            assert kummer_1f1(a, b, x) == pytest.approx(want, rel=1e-12)

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
            (0.1, 0.3, -10.0),  # small b, |x| >> b
            (0.25, 0.5, -16.0),
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

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_small_b_large_argument_against_mpmath(self, sign):
        # small b, |x| >> b: the Euler kernel for a < b, the kernel and the
        # recurrence in b for a >= b, x > 0, and the Kummer transform's
        # Taylor series for a > b, x < 0.  A b - a within 1e-9 of a
        # nonpositive integer is taken as that integer, which is a separate
        # gap at large negative x, so those points stay out
        worst = 0.0
        for b in np.linspace(0.05, 1.0, 6):
            for a in np.linspace(0.03, b + 2.0, 7)[1:]:
                if b - a <= 0 and abs(b - a - round(b - a)) < 1e-9:
                    continue
                for x in sign * np.geomspace(5.0, 60.0, 9):
                    with mp.workdps(40):
                        want = float(mp.hyp1f1(a, b, x))
                    worst = max(worst, abs(kummer_1f1(a, b, x) / want - 1.0))
        assert worst < 1e-12

    @pytest.mark.parametrize(
        "a, b, x",
        [
            (0.1, 0.3, 10.0),  # small b, |x| >> b
            (0.25, 0.5, 16.0),
            (0.00089, 0.0578, 2.23),
            (1498.5, 1500.5, 45000.0),  # a, b and |x| all large
            (1498.5, 1500.5, -45000.0),
            (331.5, 333.5, 1e4),
            (446.5, 350.5, 19337.5),  # a > b: the recurrence in b
            (3646.5, 2137.5, 5395.0),  # a > b, 1F1 past the float range
            (4.0, 5693.23, -26700.64),  # adding x to a Kummer transform costs eps |x|
            (1.0, 7582.12, -17462.0),
            (6368.3342608984285, 3193.208844482746, 8956.767235726724),  # Taylor: too long
            (2.7, 0.35, 900.0),
            (-0.5, 1.5, -20000.0),  # a <= 0, x <= -b: the recurrence after the transform
            (-7.243466241873176, 3.717701139676031, -35215.98894010092),
            (-0.07159371437171286, 0.09759039845786317, -47993.838909319704),  # eps |x| = 1e-11
            (1e-20, 1.0, 5.0),  # a tiny: the kernel refuses, the Taylor series runs
            (1e-20, 1.0, -5.0),
            (1.0 - 2.0**-50, 1.0, -5.0),  # b - a tiny
        ],
    )
    def test_log_form_against_mpmath(self, a, b, x):
        with mp.workdps(40):
            want = float(mp.log(mp.hyp1f1(a, b, x, maxterms=10**6)))
        got = log_kummer_1f1(a, b, x)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize(
        "a, b, x", [(1.0, 9000.0, 6000.0), (2.0, 9000.0, 6000.0), (8999.0, 9000.0, -6000.0)]
    )
    def test_below_two_b_past_half_max_terms_against_mpmath(self, a, b, x):
        # max_terms / 2 < |x| < b: the Taylor series, long but finishing
        with mp.workdps(40):
            want = mp.exp(x) * mp.hyp1f1(b - a, b, -x) if x < 0 else mp.hyp1f1(a, b, x)
            log_want = float(mp.log(want))
        assert kummer_1f1(a, b, x) == pytest.approx(float(want), rel=1e-12)
        assert abs(log_kummer_1f1(a, b, x) - log_want) <= 1e-12 * max(1.0, abs(log_want))

    def test_below_two_b_past_half_max_terms_on_a_sweep(self):
        # b > |x| > max_terms / 2, with a, b - a or neither a small integer:
        # each value is right to 1e-12 or refused
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(20):
            b = float(rng.uniform(5000.0, 1e4))
            x = float(rng.choice([-1.0, 1.0]) * rng.uniform(5000.0, b))
            draws = [rng.integers(1, 12), b - rng.integers(1, 12), 2 * b * (1 - rng.uniform())]
            a = float(rng.choice(draws))
            if x < 0 and b - a <= 0:
                continue
            want = mp_log_1f1(a, b, x)
            try:
                got = log_kummer_1f1(a, b, x)
            except NumericalError:
                continue
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (a, b, x)
            checked += 1
        assert checked >= 15

    @pytest.mark.parametrize(
        "a, b, x", [(249.6, 1456.9, -16676.0), (214.1, 1670.4, 12614.0), (294.2, 568.1, -9569.0)]
    )
    def test_log_form_in_the_gap_is_right_or_refused(self, a, b, x):
        # too long for the Taylor series: the Euler kernel
        want = mp_log_1f1(a, b, x)
        try:
            got = log_kummer_1f1(a, b, x)
        except NumericalError:
            return
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_log_form_matches_linear_form_on_a_sweep(self):
        # both forms wrap one core; where both are finite they must agree
        rng = np.random.default_rng(10)
        checked = 0
        for _ in range(400):
            b = float(10 ** rng.uniform(-1.3, 2.5))
            a = float(2 * b * (1 - rng.uniform()))
            x = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-2, 2.85))
            if x < 0 and b - a <= 0:
                continue
            log_value = log_kummer_1f1(a, b, x)
            if abs(log_value) < 700:
                assert math.exp(log_value) == pytest.approx(kummer_1f1(a, b, x), rel=1e-12)
                checked += 1
        assert checked > 250

    @pytest.mark.parametrize("a, b, x", [
        (1.0, 1e-10, 1.0), (1.0, 1e-15, 1.0), (1.0, 3e-16, 1.0), (3.0, 1e-17, 2.0),
        (1.0, 1e-300, 1.0), (1.0, 1e-320, 1.0),  # 1e-320 is subnormal
    ])
    def test_tiny_b_against_mpmath(self, a, b, x):
        # the recurrence in b down to a tiny b: c - 1 lost b's digits as b -> 0
        # and was 0.0 below about 2e-16; 1F1(1, 1e-320, 1) = e^737.8 is past
        # the float range, its log is not
        with mp.workdps(40):
            want = mp.hyp1f1(a, mp.mpf(b), x)
        assert log_kummer_1f1(a, b, x) == pytest.approx(float(mp.log(want)), rel=1e-14)
        if want < np.finfo(float).max:
            assert kummer_1f1(a, b, x) == pytest.approx(float(want), rel=1e-13)
        else:
            with pytest.raises(NumericalError):
                kummer_1f1(a, b, x)

    def test_tiny_b_on_a_sweep(self):
        # b from 1e-10 down to 1e-300 at several a >= b and x > 0: the log is
        # right to a few ulps
        worst = 0.0
        for b in np.geomspace(1e-10, 1e-300, 30):
            for a in (0.5, 1.0, 2.5, 7.0, 40.3):
                for x in (0.5, 2.0, 30.0):
                    with mp.workdps(40):
                        want = float(mp.log(mp.hyp1f1(a, mp.mpf(b), x)))
                    worst = max(worst, abs(log_kummer_1f1(a, b, x) / want - 1.0))
        assert worst < 1e-14

    def test_past_float_range_is_numerical_error(self):
        # 1F1(300, 400, 2e4) = 2.2e8509
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                kummer_1f1(300.0, 400.0, 2e4)

    def test_log_form_on_a_seeded_sweep(self):
        # b > a > 0 never raises and is right to 1e-12 against mp.hyp1f1;
        # the reference values are frozen (mp.hyp1f1 takes up to 40 s a
        # point at |x| ~ 1e5, b ~ 1e4) and checked live where it is quick
        table = json.loads(KUMMER_SWEEP.read_text())
        assert [row[:3] for row in table] == [list(p) for p in kummer_sweep_points(300)]
        for a, b, x, want in table:
            got = log_kummer_1f1(a, b, x)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (a, b, x)
        quick = [row for row in table if abs(row[2]) < 100.0][:20]
        assert len(quick) == 20
        for a, b, x, want in quick:
            assert mp_log_1f1(a, b, x) == pytest.approx(want, rel=1e-15, abs=1e-300)

    def test_cancelled_series_is_refused(self):
        # negative non-integer a: the terms reach 1e51 and cancel to -3.85e-53
        a, b, x = -194.00585925108737, 197.80482539929037, 332.0177432090016
        with mp.workdps(60):
            want = float(mp.hyp1f1(a, b, x))
        try:
            got = kummer_1f1(a, b, x)
        except NumericalError:
            return
        assert got == pytest.approx(want, rel=1e-12)


    @pytest.mark.parametrize("a, b, x", [
        (2.3954545454545455, 0.39545454545454545, -60.0),
        (1.1, 0.1, -40.0),
        (6.244433362190889, 0.24443336219088835, -197.3832113623432),
        (1.0459668276458158, 0.04596682764581585, -127.89265268903293),
        (5.17296816087858, 0.17296816087857966, -87.11911888548053),
    ])
    def test_transform_keeps_the_exact_difference_against_mpmath(self, a, b, x):
        # b - a rounds onto a nonpositive integer that the exact difference
        # misses, so the transform's series is not a terminating polynomial
        # (1.55e-20 at the first point, where the polynomial gave 5.4e-23)
        with mp.workdps(50):
            want = float(mp.hyp1f1(mp.mpf(a), mp.mpf(b), mp.mpf(x)))
        assert kummer_1f1(a, b, x) == pytest.approx(want, rel=1e-10, abs=0)

    def test_equal_parameters_are_the_exponential(self):
        # 1F1(a, a, x) = e^x; at a = b = 1e-17 the kernel's parameters
        # rounded together, and the log form refused x < 0
        for a in (1e-17, 0.5, 3.0, -2.5):
            for x in (-30.0, -3.0, 5.0, 520.1704705773651):
                assert kummer_1f1(a, a, x) == math.exp(x)
                if a > 0:
                    assert log_kummer_1f1(a, a, x) == x

    def test_transform_past_max_terms_is_right_or_refused(self):
        # a > b > 0, x <= -b: e^x 1F1(b - a, b, -x) starts with a negative
        # parameter, and past |x| ~ max_terms its Taylor series is too long
        with mp.workdps(40):
            want = float(mp.hyp1f1(2.5, 1.2, -20000.0))
        try:
            got = kummer_1f1(2.5, 1.2, -20000.0)
        except NumericalError:
            return
        assert got == pytest.approx(want, rel=1e-12)


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
        # the Euler-integral kernel against mpmath's double series, for
        # x in [0, 1) and beta <= 0 too
        cases = [
            (0.5, 1.0, 2.0, 0.3, 1.5),
            (0.5, 1.0, 2.0, 0.0, 2.0),
            (1.5, 1.0, 3.0, 0.7, -4.0),
            (0.5, 2.5, 3.0, 0.4, 0.8),
            (2.0, 1.0, 3.5, 0.6, 5.0),
            (0.5, 1.0, 1.5, 0.96, 3.0),
            (0.5, -0.5, 2.0, 0.3, 1.5),
            (1.5, -2.5, 3.0, 0.7, -4.0),
            (0.7, -1.0, 2.2, 0.5, 2.0),  # (beta)_m = 0 from m = 2 on
            (0.5, -3.7, 1.5, 0.9, 3.0),
            (2.0, 0.0, 3.5, 0.6, 5.0),
        ]
        for c in cases:
            assert phi1(*c) == pytest.approx(mp_phi1_double_series(*c), rel=1e-12), c

    def test_corrected_reduction_matches_double_series(self):
        # Phi1 = e^y sum_n (alpha)_n (beta)_n x^n / ((gamma)_n n!)
        #            1F1(gamma - alpha, gamma + n, -y):
        # the beta Pochhammer rides with the x index, and this reduction
        # reproduces the defining double series, as does the kernel
        cases = [
            (0.5, 2.5, 3.0, 0.4, 0.8),
            (0.7, 0.4, 2.2, 0.5, -1.2),
            (1.2, 3.0, 4.0, 0.25, 2.0),
        ]
        for alpha, beta, gamma, x, y in cases:
            total, coef = 0.0, 1.0
            for n in range(200):
                total += coef * kummer_1f1(gamma - alpha, gamma + n, -y)
                coef *= (alpha + n) * (beta + n) * x / ((gamma + n) * (n + 1.0))
            right = mp_phi1_double_series(alpha, beta, gamma, x, y)
            assert math.exp(y) * total == pytest.approx(right, rel=1e-12)
            assert phi1(alpha, beta, gamma, x, y) == pytest.approx(right, rel=1e-12)

    def test_swapped_pochhammer_variant_disagrees(self):
        # the same series with (beta)_n replaced by 1 (beta multiplying the
        # wrong index collapses to this at beta != 1) must NOT match
        alpha, beta, gamma, x, y = 0.5, 2.5, 3.0, 0.4, 0.8
        total, coef = 0.0, 1.0
        for n in range(400):
            total += coef * kummer_1f1(gamma - alpha, gamma + n, -y)
            coef *= (alpha + n) * x / ((gamma + n) * (n + 1.0))  # drops (beta)_n
        wrong = math.exp(y) * total
        right = mp_phi1_double_series(alpha, beta, gamma, x, y)
        assert abs(wrong / right - 1.0) > 1e-3

    def test_log_form_stable_for_huge_y(self):
        for y in (20000.0, -20000.0):
            alpha = 0.5 if y > 0 else 1.5
            la = log_phi1(alpha, 1.0, 2.0, 0.75, y)
            assert math.isfinite(la)
            assert la == pytest.approx(mp_log_phi1(alpha, 1.0, 2.0, 0.75, y), abs=1e-12)

    @pytest.mark.parametrize("d, tau, norm", [(100, 100.0, 1e4), (100, 1e3, 1e4), (1, 1e3, 1e4)])
    def test_log_form_at_the_posterior_arguments(self, d, tau, norm):
        # both Phi1 of the posterior mean's moment form, E(theta|y) for
        # tau >= 1; the Kummer-function series did not converge here
        x, y = 1.0 - tau**-2, 0.5 * norm**2
        for alpha, gamma in [(0.5, 0.5 * (d + 2)), (1.5, 0.5 * (d + 4))]:
            want = mp_log_phi1(alpha, 1.0, gamma, x, y)
            assert abs(log_phi1(alpha, 1.0, gamma, x, y) - want) <= 1e-12 * max(1.0, abs(want))

    def test_posterior_argument_grid_never_raises(self):
        # d <= 100, tau in [1, 1e3], ||y|| <= 1e4: finite everywhere
        for d in (1, 3, 10, 100):
            for tau in np.geomspace(1.0, 1e3, 7):
                for norm in (0.0, 0.1, 3.0, 100.0, 1e4):
                    x, y = 1.0 - tau**-2, 0.5 * norm**2
                    assert math.isfinite(log_phi1(0.5, 1.0, 0.5 * (d + 2), x, y))
                    assert math.isfinite(log_phi1(1.5, 1.0, 0.5 * (d + 4), x, y))

    def test_tiny_alpha_right_or_refused(self):
        # with alpha tiny the mass near t = 0 spreads over rho ~ 1/alpha; where
        # it reaches the sparse outermost nodes the kernel refuses
        assert log_phi1(1e-20, 0.7, 1.0, 0.5, -5.0) == pytest.approx(
            math.log(mp_phi1_double_series(1e-20, 0.7, 1.0, 0.5, -5.0)), abs=1e-14
        )
        with pytest.raises(NumericalError):
            log_phi1(1e-20, 0.7, 1.0, 0.5, 5.0)

    def test_no_path_raises(self):
        with pytest.raises(DomainError):
            phi1(-0.5, 1.0, 0.2, 0.5, 1.0)

    def test_path_a_domain_errors(self):
        with pytest.raises(DomainError):
            phi1(0.5, 1.0, 2.0, 1.2, 1.0)
        with pytest.raises(DomainError):
            log_phi1(2.5, 1.0, 2.0, 0.5, 1.0)
