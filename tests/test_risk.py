"""Risk-bound tests: KL-ball masses against their asymptotic expansions and
mpmath (live, and a frozen sweep from radius 1e-300 to 1e150), monotonicity,
rate/slope behavior of the bound (including the extra -log log n / n
improvement that exists only in one dimension), and the Monte Carlo risk
estimate against the bound and against its exact value by quadrature.
"""

import json
import math
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special, stats

import ghs.distribution
import ghs.risk
from ghs.cli import main
from ghs.distribution import radial_log_density
from ghs.errors import DomainError, NumericalError
from ghs.posterior import _c_like_integral_lambda, _mixture_moments
from ghs.risk import (
    RiskScenario,
    _log_ratio,
    cesaro_risk_mc,
    kl_ball_prior_mass,
    kl_ball_radius,
    origin_ball_mass,
    risk_upper_bound,
)
from ghs.rng import make_rng
from oracles import ball_mass_mpmath

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

    def test_radius_and_validation(self):
        assert kl_ball_radius(RiskScenario(2), 8) == pytest.approx(0.5)
        with pytest.raises(DomainError):
            kl_ball_prior_mass(RiskScenario(2), 1)
        with pytest.raises(DomainError):
            RiskScenario(2, 1.0, (1.0,))
        with pytest.raises(DomainError):  # the radius was NaN
            kl_ball_radius(RiskScenario(2), math.nan)

    @pytest.mark.parametrize("args", [
        (2.5,),
        (2, math.inf),
        (2, 1.0, (math.nan, 0.0)),
        (2, 1.0, (math.inf, 0.0)),
    ])
    def test_scenario_rejects_bad_input(self, args):
        with pytest.raises(DomainError):
            RiskScenario(*args)

    @pytest.mark.parametrize("n", [100.5, math.nan, math.inf, 1, 1.0, "100", None])
    def test_scenario_rejects_sizes_that_are_not_whole_and_at_least_two(self, n):
        # 100.5 ran as 100; NaN raised a raw ValueError and inf a raw OverflowError
        with pytest.raises(DomainError):
            RiskScenario(1, 1.0, (), (1000, n))

    def test_scenario_accepts_whole_float_sizes(self):
        assert RiskScenario(1, 1.0, (), (1e3, 2.0, np.int64(50))).n_grid == (1000, 2, 50)


def d1_mass_mpmath(t, r):
    """d = 1 ball mass: half-Cauchy mean of Phi((t+r)/lam) - Phi((t-r)/lam)."""
    with mp.workdps(30):
        t, r = mp.mpf(t), mp.mpf(r)

        def f(lam):  # the CDF difference as erfc terms, which do not cancel
            inner = mp.erfc((t - r) / (lam * mp.sqrt(2))) - mp.erfc((t + r) / (lam * mp.sqrt(2)))
            return inner / (mp.pi * (1 + lam**2))

        breaks = sorted({abs(t - r), r, t, t + r, mp.mpf(1)} - {0})
        return float(mp.quad(f, [0, *breaks, mp.inf]))


def off_origin_mass_mpmath(d, t, r):
    """Mass of the ball of radius r < t around a point at distance t from the
    origin: the radial integral over rho in [t - r, t + r] of the closed-form
    density times the sphere area times the fraction of the sphere ||x|| = rho
    inside the ball, 1/2 I_(1-c^2)((d-1)/2, 1/2) for the cap cos >= c >= 0."""
    with mp.workdps(30):
        t, r = mp.mpf(t), mp.mpf(r)
        nu, half_d, half = mp.mpf(d + 1) / 2, mp.mpf(d) / 2, mp.mpf(1) / 2
        # K_d e^u E_nu(u) / rho^(d-1) times the area 2 pi^(d/2) rho^(d-1) / Gamma(d/2)
        lead = mp.gamma(nu) / mp.sqrt(2 * mp.pi ** (d + 2)) * 2 * mp.pi**half_d / mp.gamma(half_d)

        def f(rho):
            c = (rho**2 + t**2 - r**2) / (2 * rho * t)
            cap = mp.betainc(half_d - half, half, 0, 1 - c**2, regularized=True) / 2
            u = rho**2 / 2
            return lead * mp.exp(u) * mp.expint(nu, u) * (cap if c >= 0 else 1 - cap)

        return float(mp.quad(f, [t - r, t, t + r]))


# ball_mass_mpmath(d, c, radius) at the ends of the radius range, at the origin
# and off it; None where the mass is no normal float (9.1e-902 at d = 3, c = 1,
# radius 1e-300, and 6.3e-30004 at d = 100)
EXTREMES = {
    (1, 0.0, 1e-300): 3.5141619178648639e-298, (1, 0.0, 1e-150): 1.759767922638772e-148,
    (1, 1.0, 1e-300): 2.3439580679504821e-301, (1, 1.0, 1e-150): 2.343958067950482e-151,
    (1, 100.0, 1e-300): 5.0784753826799791e-305, (1, 100.0, 1e-150): 5.078475382679979e-155,
    (3, 0.0, 1e-300): 5.0794908747392777e-301, (3, 0.0, 1e-150): 5.0794908747392776e-151,
    (100, 0.0, 1e-300): 6.4144468401317292e-302, (100, 0.0, 1e-150): 6.414446840131729e-152,
    **{(d, c, r): None for d in (3, 100) for c in (1.0, 100.0) for r in (1e-300, 1e-150)},
    **{(1, c, 1e8): 0.99999999492050913 for c in (0.0, 1.0, 100.0)},
    **{(3, c, 1e8): 0.99999998984101825 for c in (0.0, 1.0, 100.0)},
    **{(100, c, 1e8): 0.99999993649697628 for c in (0.0, 1.0, 100.0)},
    **{(d, c, 1e150): 1.0 for d in (1, 3, 100) for c in (0.0, 1.0, 100.0)},
}


# frozen_log_mass at the points of ball_mass_sweep_points(); written by make_ball_mass_sweep.py beside it
BALL_MASS_SWEEP = Path(__file__).with_name("data") / "ball_mass_sweep.json"


def ball_mass_sweep_points():
    """The (d, ||theta0||, radius) of the frozen ball-mass sweep.

    The 40 KL balls of radius sqrt(2/n) at the origin, d in 1..100 and n in
    2..1e12; then 250 seeded log-uniform points: d in 1..100, ||theta0|| 0 at
    every fifth and else in [1e-3, 1e4], and the radius in [1e-300, 1e150].
    """
    points = [
        (d, 0.0, kl_ball_radius(RiskScenario(d), n))
        for d in (1, 2, 3, 5, 10, 20, 50, 100)
        for n in (2, 10**3, 10**6, 10**8, 10**12)
    ]
    rng = np.random.default_rng(44)
    for i in range(250):
        d, c, r = round(10 ** rng.uniform(0.0, 2.0)), 10 ** rng.uniform(-3.0, 4.0), 10 ** rng.uniform(-300.0, 150.0)
        points.append((d, 0.0 if i % 5 == 0 else c, r))
    return points


def frozen_log_mass(d, c, radius):
    """log ball_mass_mpmath(d, c, radius) as a float, the value the sweep stores."""
    with mp.workdps(40):
        return float(mp.log(ball_mass_mpmath(d, c, radius)))


def test_frozen_ball_mass_sweep():
    # no point raises: the mass within 1e-12 where it is a normal float, else
    # its log within 1e-13; at the origin through origin_ball_mass as well
    table = json.loads(BALL_MASS_SWEEP.read_text())
    assert [tuple(row[:3]) for row in table] == ball_mass_sweep_points()
    for d, c, radius, ref in table:
        log_mass = float(ghs.risk._ball_log_masses(d, np.array([radius]), c)[0])
        if ref < math.log(sys.float_info.min):
            assert log_mass == pytest.approx(ref, rel=1e-13, abs=0), (d, c, radius)
            continue
        assert math.exp(log_mass) == pytest.approx(math.exp(ref), rel=1e-12, abs=0), (d, c, radius)
        if c == 0.0:
            assert origin_ball_mass(d, radius) == pytest.approx(math.exp(ref), rel=1e-12, abs=0)
    # the table against its oracle on rows of d <= 2, where mpmath takes well
    # under a second: at the origin, and off it with masses above and below the float range
    for d, c, radius, ref in (table[i] for i in (0, 91, 142, 211, 252)):
        assert frozen_log_mass(d, c, radius) == ref, (d, c, radius)


class TestBallMassKernel:
    @pytest.mark.parametrize("t, n", [
        (1e-6, 2), (1e-6, 10**12), (1.0, 10**12), (1e3, 2), (1e3, 10**12),
        (1.0, 2), (math.sqrt(2e-12), 10**12),  # the sphere passes through the origin
        (1.0001, 2),
    ])
    def test_one_dimension_closed_form_against_mpmath(self, t, n):
        sc = RiskScenario(1, 1.0, (t,))
        expected = d1_mass_mpmath(t, kl_ball_radius(sc, n))
        assert kl_ball_prior_mass(sc, n) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_off_origin_against_mpmath(self):
        for theta0 in ((1.0, 1.0), (1.0, 1.0, 1.0)):
            sc = RiskScenario(len(theta0), 1.0, theta0)
            for n in (10**2, 10**3, 10**5, 10**8):
                expected = off_origin_mass_mpmath(sc.d, math.hypot(*theta0), kl_ball_radius(sc, n))
                assert kl_ball_prior_mass(sc, n) == pytest.approx(expected, rel=1e-12, abs=0), n

    def test_near_pole_matches_log_lambda_quadrature(self):
        # the ball holds the origin, where the radial density has its pole
        sc = RiskScenario(2, 1.0, (0.01, 0.0))
        r, c = kl_ball_radius(sc, 1000), 1e-4

        def f(s):  # s = log lam
            lam = math.exp(s)
            cdf = special.chndtr(r * r / lam**2, 2, c / lam**2)
            return 2.0 / math.pi * lam / (1.0 + lam * lam) * cdf

        # below lam = 1e-4 the CDF is 1 to double precision: (r - 0.01)/lam > 340
        lo, hi = math.log(1e-4), math.log(1e6)
        pts = sorted(math.log(v) for v in (r - 0.01, 0.01, r, r + 0.01, 1.0))
        body = integrate.quad(f, lo, hi, points=pts, limit=200, epsabs=0, epsrel=1e-13)[0]
        expected = 2.0 / math.pi * math.atan(1e-4) + body
        assert kl_ball_prior_mass(sc, 1000) == pytest.approx(expected, rel=1e-10)

    def test_gap_to_point_density_times_volume_shrinks_like_one_over_n(self):
        # mass = p(theta0) vol(ball) (1 + O(R^2)) with R^2 = 2/n
        for theta0 in ((1.0, 1.0), (1.0, 1.0, 1.0)):
            d = len(theta0)
            sc = RiskScenario(d, 1.0, theta0)
            gaps = []
            for n in (10**5, 10**6, 10**7, 10**8):
                r = kl_ball_radius(sc, n)
                vol = math.pi ** (d / 2) * r**d / math.gamma(d / 2 + 1)
                point = math.exp(radial_log_density(d, math.sqrt(d))) * vol
                gaps.append(kl_ball_prior_mass(sc, n) / point - 1.0)
            assert all(g > 0 for g in gaps)
            assert [a / b for a, b in zip(gaps, gaps[1:])] == pytest.approx([10.0] * 3, rel=1e-3)

    def test_underflow_is_numerical_error(self):
        # a mass below the normal range; the bound, from its log, is a value
        with pytest.raises(NumericalError):
            kl_ball_prior_mass(RiskScenario(100, 1.0, (1.0,) + (0.0,) * 99), 10**8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # ||theta0||^2 overflows without a warning
            sc = RiskScenario(1, 1.0, (1e200,))
            with pytest.raises(NumericalError):
                kl_ball_prior_mass(sc, 10)
            log_mass = mp.log(ball_mass_mpmath(1, 1e200, kl_ball_radius(sc, 10)))  # -922.516...
            assert risk_upper_bound(sc, 10) == pytest.approx(float((1 - log_mass) / 10), rel=1e-13, abs=0)

    def test_radius_and_centre_past_the_float_range_is_numerical_error(self):
        # R + ||theta0|| overflows: a typed error, with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                kl_ball_prior_mass(RiskScenario(3, 1e308, (1e308, 0.0, 0.0)), 2)

    @pytest.mark.parametrize("d", [1, 2, 100])
    def test_mass_or_numerical_error_over_the_domain(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (2, 10**12):
                r = kl_ball_radius(RiskScenario(d), n)
                for t in (0.0, 1e-300, 1e-8, r, 1.0, 1e3, 1e100, 1e300):
                    for theta0 in ((t,) + (0.0,) * (d - 1), (t / math.sqrt(d),) * d):
                        try:
                            mass = kl_ball_prior_mass(RiskScenario(d, 1.0, theta0), n)
                        except NumericalError:
                            continue
                        assert 0.0 < mass < 1.0

    def test_large_radius_against_mpmath(self):
        # the fixed nodes stopped at lam ~ 1e-19 R/sqrt(d): radius 1e8 was a NumericalError
        for radius in (1e6, 1e8):
            expected = float(ball_mass_mpmath(1, 0.0, radius))
            assert kl_ball_prior_mass(RiskScenario(1, radius), 2) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", [10**3, 10**6, 10**12])
    def test_large_dimension_against_the_atan_series(self, d):
        # P(lam ||z|| <= 1) = (2/pi) E atan(1/||z||), ||z||^2 ~ chi^2_d: the series of atan,
        # with E ||z||^-m = 2^(-m/2) Gamma((d - m)/2) / Gamma(d/2).  The shell density's
        # constant was a difference of lgamma's near d log d: 8.5e-10 off at d = 10^6,
        # and the rule was not resolved at 10^12
        with mp.workdps(30):
            series = sum((-1) ** k / mp.mpf(2 * k + 1) / mp.sqrt(2) ** (2 * k + 1)
                         * mp.exp(mp.loggamma(mp.mpf(d - 2 * k - 1) / 2) - mp.loggamma(mp.mpf(d) / 2))
                         for k in range(8))
            expected = float(2 / mp.pi * series)
        assert origin_ball_mass(d, 1.0) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("d", [1, 3, 100])
    def test_tiny_radius_against_mpmath_with_no_warning(self, d):
        # 1/lam^2 at the first node left the float range at 1e-150 and the
        # squared radius underflowed at 1e-300: both were NumericalError.  A
        # mass below the normal range is one, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for radius in (1e-150, 1e-300):
                expected = float(ball_mass_mpmath(d, 0.0, radius))
                assert ghs.risk._ball_masses(d, [radius], 0.0)[0] == pytest.approx(expected, rel=1e-12, abs=0)
            radius = kl_ball_radius(RiskScenario(d), 2e300)  # 1e-150
            expected = float(ball_mass_mpmath(d, 0.0, radius))
            assert kl_ball_prior_mass(RiskScenario(d), 2e300) == pytest.approx(expected, rel=1e-12, abs=0)
            assert ball_mass_mpmath(d, 0.0, 1e-320) < sys.float_info.min
            with pytest.raises(NumericalError):
                ghs.risk._ball_masses(d, [1e-320], 0.0)[0]

    def test_one_radial_density_call_per_ball(self, monkeypatch):
        calls = []
        kernel = ghs.risk._log_scaled_expint

        def counted(d, u, log_u):
            calls.append(u.size)
            return kernel(d, u, log_u)

        monkeypatch.setattr(ghs.risk, "_log_scaled_expint", counted)
        sizes = [2, 3] + [10**k for k in range(1, 9)]
        cases = [(d, t, n) for d in range(1, 11) for t in (0.0, 0.5, 1.0, 3.0) for n in sizes]
        cases.append((100, 1.0, 2))
        for d, t, n in cases:
            calls.clear()
            assert 0.0 < kl_ball_prior_mass(RiskScenario(d, 1.0, (t,) * d), n) < 1.0
            assert calls in ([257], [514]), (d, t, n)  # the rule on one part or two

    def test_one_radial_density_call_per_dimension_in_cmd_risk(self, monkeypatch, tmp_path):
        calls = []
        kernel = ghs.risk._log_scaled_expint
        monkeypatch.setattr(ghs.risk, "_log_scaled_expint", lambda d, u, log_u: calls.append(d) or kernel(d, u, log_u))
        main(["risk", "--d-list", "1,2,3", "--n-grid", "1e3,1e4,1e5,1e6", "--out", str(tmp_path / "r.csv")])
        assert calls == [1, 2, 3]

    @pytest.mark.parametrize("d", [2, 3, 10])
    @pytest.mark.parametrize("ratio", [1.0001, 1.005])
    def test_off_origin_near_the_pole_against_mpmath(self, d, ratio):
        # the sphere passes just outside the origin, where the CDF has a
        # second step at lam ~ ||theta0|| - R
        r = kl_ball_radius(RiskScenario(d), 10**4)
        sc = RiskScenario(d, 1.0, (ratio * r,) + (0.0,) * (d - 1))
        expected = off_origin_mass_mpmath(d, ratio * r, r)
        assert kl_ball_prior_mass(sc, 10**4) == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("d, c, radius, expected", [
        # ball_mass_mpmath's values; the parent gave 0.6336908242318194 and 0.4884498582958776
        (56, 6602.592399158685, 6602.8022336734675, 0.6336908241077169),
        (63, 9470.494087996221, 9470.490624859045, 0.4884498583030773),
    ])
    def test_wide_crossing_range_takes_a_finer_step(self, monkeypatch, d, c, radius, expected):
        # |R - c| << 1 << R + c: a crossing range too wide in log s for the step 1/32
        sizes = []
        kernel = ghs.risk._log_scaled_expint
        monkeypatch.setattr(ghs.risk, "_log_scaled_expint", lambda d, u, log_u: sizes.append(u.shape[1]) or kernel(d, u, log_u))
        sc = RiskScenario(d, radius, (c,) + (0.0,) * (d - 1))
        assert kl_ball_prior_mass(sc, 2) == pytest.approx(expected, rel=1e-12, abs=0)
        assert sizes[0] == 257 and sizes[-1] > 257

    @pytest.mark.parametrize("d, c, radius", sorted(EXTREMES))
    def test_extreme_radii_against_mpmath(self, d, c, radius):
        # ball_mass_mpmath's values; None where the mass is no normal float
        sc = RiskScenario(d, radius, (c,) + (0.0,) * (d - 1))  # radius sigma sqrt(2/2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if EXTREMES[d, c, radius] is None:
                with pytest.raises(NumericalError):
                    kl_ball_prior_mass(sc, 2)
            else:
                assert kl_ball_prior_mass(sc, 2) == pytest.approx(EXTREMES[d, c, radius], rel=1e-12, abs=0)

    @pytest.mark.parametrize("key", [(1, 1.0, 1e-150), (3, 0.0, 1e-300), (3, 1.0, 1e-150), (100, 100.0, 1e8)])
    def test_extreme_references_are_the_oracle(self, key):
        expected = ball_mass_mpmath(*key)
        if EXTREMES[key] is None:
            assert expected < sys.float_info.min
        else:
            assert EXTREMES[key] == pytest.approx(float(expected), rel=1e-15, abs=0)

    def test_does_not_reach_the_quadrature_oracles(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("kl_ball_prior_mass reached a quadrature oracle")

        for module, name in [
            (ghs.risk, "adaptive_quad"),
            (ghs.distribution, "adaptive_quad"),
            (ghs.distribution, "exp_scaled_gen_exp_integral"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        for sc in (RiskScenario(3), RiskScenario(3, 1.0, (1.0, 1.0, 1.0))):
            assert 0.0 < kl_ball_prior_mass(sc, 10**4) < 1.0


def broad_box(m, seed):
    """m scenarios (d, sigma, ||theta0||, n): d in 1-100, and log-uniform sigma in 1e-3-1e3,
    ||theta0|| 0 in about a fifth of them and else in 1e-3-1e4, and n in 2-1e12."""
    rng = np.random.default_rng(seed)
    ds = rng.integers(1, 101, m).tolist()
    sigmas = (10.0 ** rng.uniform(-3.0, 3.0, m)).tolist()
    norms = np.where(rng.random(m) < 0.2, 0.0, 10.0 ** rng.uniform(-3.0, 4.0, m)).tolist()
    ns = np.round(10.0 ** rng.uniform(math.log10(2.0), 12.0, m)).astype(int).tolist()
    return list(zip(ds, sigmas, norms, ns))


class TestBoundFromLogMass:
    def test_bound_wherever_the_log_mass_is_finite(self):
        # a mass below the normal range was a NumericalError, though (1 - log M)/n exists
        below = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d, sigma, c, n in broad_box(200, 5):
                sc = RiskScenario(d, sigma, (c,) + (0.0,) * (d - 1))
                log_mass = float(ghs.risk._ball_log_masses(d, np.array([kl_ball_radius(sc, n)]), c)[0])
                if math.isfinite(log_mass):
                    assert risk_upper_bound(sc, n) == (1.0 - log_mass) / n, (d, sigma, c, n)
                below += log_mass < math.log(sys.float_info.min)
        assert below > 20  # 29 of the 200

    @pytest.mark.parametrize("d, c, radius", [(92, 100.0, 0.0084), (40, 3.0, 1e-9), (100, 1e4, 0.3)])
    def test_log_mass_below_the_normal_range_against_mpmath(self, d, c, radius):
        expected = mp.log(ball_mass_mpmath(d, c, radius))
        assert expected < math.log(sys.float_info.min)
        log_mass = ghs.risk._ball_log_masses(d, np.array([radius]), c)[0]
        assert log_mass == pytest.approx(float(expected), rel=1e-13, abs=0)


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

    def test_far_truth_against_the_far_tail_closed_form(self):
        # theta0 = 1e150: a = ||sqrt(b) theta0 + w||^2 / 2 ~ 5e303 with b = n, where
        # log int w -> log b + lgamma((d+1)/2) - ((d+1)/2) log a to O(b/a); a
        # NumericalError before
        n, reps, seed = 100, 10, 1
        res = cesaro_risk_mc(RiskScenario(1, 1.0, (1e150,)), n, reps, seed)
        w = make_rng(seed).standard_normal((reps, 1))[:, 0]
        a = 0.5 * (math.sqrt(n) * 1e150 + w) ** 2
        want = (math.log(math.pi * math.sqrt(n)) - 0.5 * w * w - math.log(n) + np.log(a)) / n
        assert res.per_rep == pytest.approx(want, rel=1e-12)
        assert res.estimate == pytest.approx(want.mean(), rel=1e-12)

    @pytest.mark.parametrize("n, reps", [(100.5, 10), (math.nan, 10), (math.inf, 10), (100, 10.5)])
    def test_fractional_sizes_rejected(self, n, reps):
        # a raw TypeError before
        with pytest.raises(DomainError):
            cesaro_risk_mc(RiskScenario(1), n, reps=reps, seed=9)

    @pytest.mark.parametrize("seed", [1.5, math.nan, "a", -1])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError):
            cesaro_risk_mc(RiskScenario(1), 20, reps=10, seed=seed)


def log_prior_predictive_by_ratio(y, theta0, sigma):
    """log m(y) as log prod p(y_i | theta0) less ``_log_ratio`` at the data's w."""
    n, d = y.shape
    s2 = sigma * sigma
    log_true = -0.5 * n * d * math.log(2 * math.pi * s2) - 0.5 * float(np.sum((y - theta0) ** 2)) / s2
    w = math.sqrt(n) * (y.mean(axis=0) - theta0) / sigma
    return log_true - _log_ratio(w[None], math.sqrt(n) * theta0 / sigma, n / s2, d)[0]


class TestPriorPredictive:
    def test_matches_lambda_quadrature(self):
        # m = K (2/pi) C(a, b, d) with a = n mean_sq/(2 sigma^2), b = n/sigma^2
        for n, d, sigma in [(2, 1, 1.0), (50, 3, 0.5), (1000, 2, 2.0), (20, 5, 1.0)]:
            rng = np.random.default_rng(n + d)
            theta0 = np.full(d, 0.3)
            y = theta0 + sigma * rng.standard_normal((n, d))
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
            got = log_prior_predictive_by_ratio(y, theta0, sigma)
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
        got = log_prior_predictive_by_ratio(y, np.array([0.5, -0.3]), sigma)
        assert got == pytest.approx(math.log(m), rel=1e-8)


def exact_cesaro_risk(d, theta0_sq, sigma, n):
    """R_n = (1/n) [log(pi sqrt(b)) - d/2 - E L(X/2)], X ~ chi2_d(n ||theta0||^2/sigma^2),
    L(a) = log int w(a, b, d), b = n/sigma^2: ``_log_ratio`` averaged over w by quadrature."""
    b = n / sigma**2
    nc = n * theta0_sq / sigma**2
    law = stats.ncx2(d, nc) if nc > 0 else stats.chi2(d)
    lo, hi = law.ppf(1e-14), law.isf(1e-14)

    def f(x):
        return _mixture_moments(0.5 * x, b, d)[0] * law.pdf(x)

    mean_l = integrate.quad(f, lo, hi, points=[d + nc], limit=200, epsabs=1e-12)[0]
    return (math.log(math.pi * math.sqrt(b)) - 0.5 * d - mean_l) / n


@pytest.mark.parametrize(
    "theta0, n, reps, seed", [((0.0,), 100, 2000, 11), ((5.0,), 100, 800, 13)]
)
def test_monte_carlo_risk_within_four_errors_of_exact(theta0, n, reps, seed):
    # the replication counts and seeds of TestCesaroRiskMc
    sc = RiskScenario(1, 1.0, theta0)
    res = cesaro_risk_mc(sc, n, reps=reps, seed=seed)
    exact = exact_cesaro_risk(1, theta0[0] ** 2, 1.0, n)
    assert abs(res.estimate - exact) <= 4.0 * res.std_error
