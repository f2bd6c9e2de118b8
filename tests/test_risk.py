"""Risk-bound tests: KL-ball masses against their asymptotic expansions,
monotonicity, rate/slope behavior of the bound (including the extra
-log log n / n improvement that exists only in one dimension), off-origin
hypercube bracketing, and the Monte Carlo risk estimate against the bound.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from ghs.errors import DomainError, ResourceError
from ghs.posterior import _c_like_integral_lambda
from ghs.risk import (
    RiskScenario,
    _log_prior_predictive,
    cesaro_risk_mc,
    kl_ball_prior_mass,
    kl_ball_radius,
    offcenter_ball_mass_brackets,
    risk_upper_bound,
)

EULER_GAMMA = float(np.euler_gamma)


def loglog_slope(scenario, n_values):
    """Least-squares slope of n*bound - log(n)/2 against log log n."""
    vals = [n * risk_upper_bound(scenario, n) - math.log(n) / 2.0 for n in n_values]
    x = np.vstack([np.log(np.log(n_values)), np.ones(len(n_values))]).T
    return float(np.linalg.lstsq(x, vals, rcond=None)[0][0]), vals


class TestBallMass:
    def test_leading_term_odd_dimension(self):
        # d = 3: [G(2)/(pi G(3/2))] (4 sigma/(d-1)) n^(-1/2), within 2% at n = 1e6
        mass = kl_ball_prior_mass(RiskScenario(3), 10**6)
        lead = (
            math.gamma(2.0)
            / (math.pi * math.gamma(1.5))
            * (4.0 / 2.0)
            * 10**-3
        )
        assert mass == pytest.approx(lead, rel=0.02)

    def test_leading_term_even_dimension(self):
        mass = kl_ball_prior_mass(RiskScenario(2), 10**6)
        lead = (
            math.gamma(1.5) / (math.pi * math.gamma(1.0)) * (4.0 / 1.0) * 10**-3
        )
        assert mass == pytest.approx(lead, rel=0.02)

    def test_one_dimension_log_factor(self):
        # d = 1 exact next-order constant: mass ~ pi^(-3/2) 2 sigma
        # (log n + 2 - gamma - 2 log sigma) n^(-1/2).  The bare leading term
        # 2 sigma log(n) n^(-1/2) is ~10% off at n = 1e6, so the 5% check
        # runs at n = 1e13 where the expansion has actually converged.
        for sigma in (1.0, 2.0):
            sc = RiskScenario(1, sigma)
            n = 10**6
            mass = kl_ball_prior_mass(sc, n)
            exact = (
                math.pi**-1.5
                * 2.0
                * sigma
                * (math.log(n) + 2.0 - EULER_GAMMA - 2.0 * math.log(sigma))
                / math.sqrt(n)
            )
            assert mass == pytest.approx(exact, rel=1e-4)
        n = 10**13
        mass = kl_ball_prior_mass(RiskScenario(1), n)
        lead = math.pi**-1.5 * 2.0 * math.log(n) / math.sqrt(n)
        assert mass == pytest.approx(lead, rel=0.05)

    def test_mass_decreasing_in_n_increasing_in_sigma(self):
        ns = [10**k for k in range(2, 7)]
        for d in [1, 2, 3]:
            masses = [kl_ball_prior_mass(RiskScenario(d), n) for n in ns]
            assert all(b < a for a, b in zip(masses, masses[1:]))
        sigmas = [0.5, 1.0, 2.0, 4.0]
        masses = [kl_ball_prior_mass(RiskScenario(2, s), 10**4) for s in sigmas]
        assert all(b > a for a, b in zip(masses, masses[1:]))

    def test_mass_in_unit_interval_and_saturates(self):
        for d in [1, 2, 3]:
            for n in [2, 100, 10**8]:
                m = kl_ball_prior_mass(RiskScenario(d), n)
                assert 0.0 < m < 1.0
        # radius -> infinity recovers the full normalization
        from ghs.distribution import origin_ball_mass

        assert origin_ball_mass(2, 1e7) == pytest.approx(1.0, abs=1e-6)

    def test_ratio_stabilization_between_1e6_and_1e8(self):
        # d >= 2: mass * sqrt(n) stabilizes with no log factor
        for d in [2, 3]:
            r6 = kl_ball_prior_mass(RiskScenario(d), 10**6) * math.sqrt(10**6)
            r8 = kl_ball_prior_mass(RiskScenario(d), 10**8) * math.sqrt(10**8)
            assert r8 == pytest.approx(r6, rel=0.02), d
        # d = 1 carries the log factor.  Normalized by the bare log n the
        # constant converges only like 1/log n (2.3% drift between 1e6 and
        # 1e8), so stabilization is asserted on the constant-corrected form
        # log n + 2 - gamma, which has converged to quadrature accuracy.
        def corrected(n):
            mass = kl_ball_prior_mass(RiskScenario(1), n)
            return mass * math.sqrt(n) / (math.log(n) + 2.0 - EULER_GAMMA)

        assert corrected(10**8) == pytest.approx(corrected(10**6), rel=1e-4)
        assert corrected(10**6) == pytest.approx(math.pi**-1.5 * 2.0, rel=1e-4)
        # the bare-log constant still drifts monotonically toward the limit
        raw = [
            kl_ball_prior_mass(RiskScenario(1), n) * math.sqrt(n) / math.log(n)
            for n in (10**6, 10**8, 10**13)
        ]
        assert raw[0] > raw[1] > raw[2] > math.pi**-1.5 * 2.0
        assert raw[2] == pytest.approx(math.pi**-1.5 * 2.0, rel=0.05)


class TestRiskBound:
    def test_super_efficiency_slope_only_in_one_dimension(self):
        ns = [10**k for k in range(5, 9)]
        slope_1, _ = loglog_slope(RiskScenario(1), ns)
        assert slope_1 == pytest.approx(-1.0, abs=0.15)
        for d in [2, 3]:
            slope_d, vals = loglog_slope(RiskScenario(d), ns)
            assert slope_d == pytest.approx(0.0, abs=0.15)
            assert max(vals) - min(vals) < 0.2  # n*bound - log(n)/2 bounded

    def test_d1_normalized_with_loglog_correction_bounded(self):
        ns = [10**k for k in range(3, 8)]
        sc = RiskScenario(1)
        vals = [
            n * risk_upper_bound(sc, n) - math.log(n) / 2.0 + math.log(math.log(n))
            for n in ns
        ]
        assert max(vals) - min(vals) < 0.3

    def test_off_origin_rate(self):
        sc = RiskScenario(2, 1.0, (1.0, 1.0))
        ns = [10**k for k in range(3, 9)]
        vals = [n * risk_upper_bound(sc, n) - 2 * math.log(n) / 2.0 for n in ns]
        assert max(vals) - min(vals) < 0.25

    def test_off_origin_brackets_order(self):
        sc = RiskScenario(2, 1.0, (1.0, 1.0))
        lower, upper = offcenter_ball_mass_brackets(sc, 10**5)
        assert 0.0 < lower < upper
        assert kl_ball_prior_mass(sc, 10**5) == lower

    def test_radius_and_validation(self):
        assert kl_ball_radius(RiskScenario(2), 8) == pytest.approx(0.5)
        with pytest.raises(DomainError):
            kl_ball_prior_mass(RiskScenario(2), 1)
        with pytest.raises(DomainError):
            RiskScenario(2, 1.0, (1.0,))


class TestCesaroRiskMc:
    def test_estimate_below_bound(self):
        sc = RiskScenario(1)
        res = cesaro_risk_mc(sc, n=100, reps=2000, seed=11)
        assert res.estimate <= risk_upper_bound(sc, 100) + 3.0 * res.std_error

    def test_nonnegative_at_n2(self):
        res = cesaro_risk_mc(RiskScenario(1), n=2, reps=2000, seed=12)
        assert res.estimate > 0.0  # KL of true joint from prior predictive

    def test_off_origin_rate_slope(self):
        # n R_n should grow like (d/2) log n between n = 100 and n = 1000
        sc = RiskScenario(1, 1.0, (5.0,))
        r_a = cesaro_risk_mc(sc, 100, reps=800, seed=13)
        r_b = cesaro_risk_mc(sc, 1000, reps=800, seed=14)
        slope = (1000 * r_b.estimate - 100 * r_a.estimate) / math.log(10.0)
        assert slope < 0.5 + 0.35
        assert r_a.estimate <= risk_upper_bound(sc, 100) + 3 * r_a.std_error
        assert r_b.estimate <= risk_upper_bound(sc, 1000) + 3 * r_b.std_error

    def test_multidimensional_case(self):
        sc = RiskScenario(2)
        res = cesaro_risk_mc(sc, 50, reps=500, seed=15)
        assert res.estimate > 0.0
        assert res.estimate <= risk_upper_bound(sc, 50) + 3.0 * res.std_error

    def test_reproducible(self):
        sc = RiskScenario(1)
        a = cesaro_risk_mc(sc, 20, reps=50, seed=9)
        b = cesaro_risk_mc(sc, 20, reps=50, seed=9)
        assert a.estimate == b.estimate
        assert np.array_equal(a.per_rep, b.per_rep)

    def test_unattainable_precision_raises(self):
        with pytest.raises(ResourceError):
            cesaro_risk_mc(RiskScenario(1), 20, reps=10, seed=9, target_se=1e-12)


class TestPriorPredictive:
    def test_matches_lambda_quadrature(self):
        # m = K (2/pi) C(a, b, d) with a = n mean_sq/(2 sigma^2), b = n/sigma^2
        for n, d, sigma in [(2, 1, 1.0), (50, 3, 0.5), (1000, 2, 2.0), (20, 5, 1.0)]:
            rng = np.random.default_rng(n + d)
            y = 0.3 + sigma * rng.standard_normal((n, d))
            ybar = y.mean(axis=0)
            s_within = float(np.sum((y - ybar) ** 2))
            mean_sq = float(ybar @ ybar)
            s2 = sigma * sigma
            c_val = _c_like_integral_lambda(n * mean_sq / (2 * s2), n / s2, d, 0.5 * d)
            expected = (
                -0.5 * n * d * math.log(2 * math.pi * s2)
                - 0.5 * s_within / s2
                + math.log(2 / math.pi * c_val)
            )
            got = _log_prior_predictive(n, d, sigma, s_within, mean_sq)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_matches_direct_gaussian_mixture(self):
        # the half-Cauchy mixture of the uncollapsed nd-variate normal
        n, d, sigma = 3, 2, 0.7
        y = np.array([[0.4, -1.1], [1.3, 0.2], [0.9, -0.5]])
        ones = np.ones((n, n))

        def integrand(lam):
            cov = np.kron(sigma**2 * np.eye(n) + lam**2 * ones, np.eye(d))
            dens = stats.multivariate_normal(np.zeros(n * d), cov).pdf(y.ravel())
            return 2.0 / (math.pi * (1.0 + lam**2)) * dens

        m = integrate.quad(integrand, 0, 1)[0] + integrate.quad(integrand, 1, np.inf)[0]
        ybar = y.mean(axis=0)
        got = _log_prior_predictive(
            n, d, sigma, float(np.sum((y - ybar) ** 2)), float(ybar @ ybar)
        )
        assert got == pytest.approx(math.log(m), rel=1e-8)
