"""A wrong-typed argument to a public entry point raises the GhsError that
its contract names, never a raw TypeError or ValueError.

Integers (``operator.index``: 2.0 is not one), whole numbers (1e3 is one,
"5" and 2.5 are not), finite reals (not strings) and arrays of reals (not of
strings, "1.5" included, nor of complex numbers) are decided by the checks
in ``ghs.errors``.  Each case below raised a raw error, or
was accepted, before those checks.  A value past the float range raises
NumericalError, with no RuntimeWarning.
"""

import math

import numpy as np
import pytest

from ghs.distribution import (
    GhsDistribution,
    density,
    log_density,
    origin_ball_mass,
    radial_log_density,
    sample_arrays,
    sample_blocks,
)
from ghs.errors import ConfigError, DomainError, NumericalError
from ghs.gamsel import (
    AdditiveModelSpec,
    ThresholdReport,
    classify,
    generate_data,
    kmeans_threshold,
    spline_basis,
)
from ghs.posterior import (
    PosteriorModel,
    SideModel,
    marginal_log_density,
    posterior_mean,
    score,
    side_model_shrinkage,
)
from ghs.risk import RiskScenario, kl_ball_radius, risk_upper_bound
from ghs.rng import make_rng
from ghs.specfun import (
    exp_scaled_expint,
    gen_exp_integral,
    kummer_1f1,
    log_kummer_1f1,
    log_phi1,
    phi1,
)

DIST = GhsDistribution(2)
MODEL = PosteriorModel(2)
SIDE = SideModel(2, 1.0, 1.0)
SPEC = AdditiveModelSpec(n=50, d_lin=1, d_nl=1, basis_size=4)
REPORT = ThresholdReport(gamma_beta=[0.6, 0.2], gamma_u=[None, 0.7])
SCENARIO = RiskScenario(1)
X = np.linspace(0.0, 1.0, 20)

CASES = {
    # accepted before: a dimension is an integer, a seed an integer
    "GhsDistribution(2.0)": (lambda: GhsDistribution(2.0), DomainError),
    "PosteriorModel(2.0)": (lambda: PosteriorModel(2.0), DomainError),
    "SideModel(2.0, 1, 1)": (lambda: SideModel(2.0, 1, 1), DomainError),
    "make_rng(SeedSequence)": (lambda: make_rng(np.random.SeedSequence(1)), DomainError),
    # accepted before: theta0 entries are numbers, not strings float() reads
    "RiskScenario theta0 '1.5'": (lambda: RiskScenario(1, theta0=("1.5",)), DomainError),
    # accepted before: vector entries are numbers, not strings a float conversion reads
    "posterior_mean ['1.5', '2']": (lambda: posterior_mean(MODEL, ["1.5", "2"]), DomainError),
    "log_density ['1.5', '2']": (lambda: log_density(DIST, ["1.5", "2"]), DomainError),
    "spline_basis x ['0.5']": (lambda: spline_basis(["0.5"] * 20, 4), DomainError),
    "kmeans_threshold ['1', '2']": (lambda: kmeans_threshold(["1", "2"]), DomainError),
    "exp_scaled_expint ['1']": (lambda: exp_scaled_expint(1.5, ["1"]), DomainError),
    # accepted before: a dimension is an integer
    "radial_log_density d 2.5": (lambda: radial_log_density(2.5, 1.0), DomainError),
    # accepted before: a sample size is a whole number
    "kl_ball_radius(2.5)": (lambda: kl_ball_radius(SCENARIO, 2.5), DomainError),
    "risk_upper_bound(2.5)": (lambda: risk_upper_bound(SCENARIO, 2.5), DomainError),
    # raw TypeError or ValueError before
    "GhsDistribution('2')": (lambda: GhsDistribution("2"), DomainError),
    "GhsDistribution(None)": (lambda: GhsDistribution(None), DomainError),
    "GhsDistribution sigma_theta '1'": (lambda: GhsDistribution(2, "1"), DomainError),
    "log_density ['a', 'b']": (lambda: log_density(DIST, ["a", "b"]), DomainError),
    "log_density [1j, 0]": (lambda: log_density(DIST, [1j, 0]), DomainError),
    "density 'a'": (lambda: density(DIST, "a"), DomainError),
    "radial_log_density 'a'": (lambda: radial_log_density(2, "a"), DomainError),
    "radial_log_density ['a']": (lambda: radial_log_density(2, ["a"]), DomainError),
    "sample_blocks n '5'": (lambda: sample_blocks(DIST, "5", 1, 10), DomainError),
    "sample_arrays n None": (lambda: sample_arrays(DIST, None, 1), DomainError),
    "sample_blocks block 'a'": (lambda: sample_blocks(DIST, 5, 1, "a"), DomainError),
    "sample_blocks block 0": (lambda: sample_blocks(DIST, 5, 1, 0), DomainError),
    "radial_log_density d 'a'": (lambda: radial_log_density("a", 1.0), DomainError),
    "origin_ball_mass 'a'": (lambda: origin_ball_mass(2, "a"), DomainError),
    "kummer_1f1 'a'": (lambda: kummer_1f1("a", 1, 1), DomainError),
    "log_kummer_1f1 'a'": (lambda: log_kummer_1f1("a", 1, 1), DomainError),
    "phi1 alpha 'a'": (lambda: phi1("a", 0, 2, 0.5, 1), DomainError),
    "log_phi1 alpha None": (lambda: log_phi1(None, 0, 2, 0.5, 1), DomainError),
    "gen_exp_integral x 'a'": (lambda: gen_exp_integral(1.5, "a"), DomainError),
    "gen_exp_integral nu 'a'": (lambda: gen_exp_integral("a", 1.0), DomainError),
    "gen_exp_integral x 1j": (lambda: gen_exp_integral(1.5, 1j), DomainError),
    "gen_exp_integral x [1.0]": (lambda: gen_exp_integral(1.5, [1.0]), DomainError),
    "PosteriorModel('2')": (lambda: PosteriorModel("2"), DomainError),
    "PosteriorModel tau '1'": (lambda: PosteriorModel(2, "1"), DomainError),
    "SideModel tau1 '1'": (lambda: SideModel(2, "1", 1.0), DomainError),
    "SideModel tau2 '1'": (lambda: SideModel(2, 1.0, "1"), DomainError),
    "marginal_log_density ['a', 'b']": (
        lambda: marginal_log_density(MODEL, ["a", "b"]), DomainError
    ),
    "score [1j, 0]": (lambda: score(MODEL, [1j, 0]), DomainError),
    "posterior_mean ['a', 'b']": (lambda: posterior_mean(MODEL, ["a", "b"]), DomainError),
    "side_model_shrinkage [1j, 0]": (lambda: side_model_shrinkage(SIDE, [1j, 0]), DomainError),
    "RiskScenario sigma '1'": (lambda: RiskScenario(1, sigma="1"), DomainError),
    "RiskScenario theta0 'a'": (lambda: RiskScenario(1, theta0=("a",)), DomainError),
    "RiskScenario theta0 5": (lambda: RiskScenario(1, theta0=5), DomainError),
    "RiskScenario n_grid 5": (lambda: RiskScenario(1, n_grid=5), DomainError),
    "kl_ball_radius '5'": (lambda: kl_ball_radius(SCENARIO, "5"), DomainError),
    "generate_data sigma_eps 'a'": (lambda: generate_data(SPEC, "a", 1), ConfigError),
    "generate_data sigma_eps None": (lambda: generate_data(SPEC, None, 1), ConfigError),
    "classify border 'x'": (lambda: classify(REPORT, border="x"), DomainError),
    "classify border_u 'x'": (lambda: classify(REPORT, border_u="x"), DomainError),
    "kmeans_threshold ['a', 'b']": (lambda: kmeans_threshold(["a", "b"]), DomainError),
    "spline_basis x ['a']": (lambda: spline_basis(["a"] * 20, 4), DomainError),
    "spline_basis K '4'": (lambda: spline_basis(X, "4"), ConfigError),
    # inf, with an overflow RuntimeWarning, before: past the float range
    "gen_exp_integral(-150, 0.5)": (lambda: gen_exp_integral(-150, 0.5), NumericalError),
    "gen_exp_integral(-1e6, 1)": (lambda: gen_exp_integral(-1e6, 1.0), NumericalError),
    "gen_exp_integral(0.001, 1e-310)": (
        lambda: gen_exp_integral(0.001, 1e-310), NumericalError
    ),
    # raw ValueError before: the Euler kernel's parameters rounded together
    "kummer_1f1(2e-17, 1e-17, 520.17)": (
        lambda: kummer_1f1(2e-17, 1e-17, 520.1704705773651), NumericalError
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_wrong_type_raises_its_ghs_error(name):
    call, error = CASES[name]
    with pytest.raises(error):
        call()


def test_valid_inputs_still_accepted():
    # the checks return plain Python values; NumPy scalars and whole floats
    # pass where the contract allows them
    assert GhsDistribution(np.int64(2)).d == 2
    assert RiskScenario(2, np.float64(1.5), (np.float64(1.0), 0), (1e3,)).n_grid == (1000,)
    assert kl_ball_radius(RiskScenario(2), 8.0) == kl_ball_radius(RiskScenario(2), 8)
    assert generate_data(SPEC, 0, 1).y.shape == (50,)
    assert classify(REPORT, border=np.float64(0.5), border_u=0) == ["linear", "non-linear"]
    # vectors of ints, bools, float32 or big Python ints are real numbers
    for y in ([1, 2], [True, False], np.array([1.5, 2.0], dtype=np.float32), [10**30, 1]):
        expect = posterior_mean(MODEL, np.array([float(v) for v in y]))
        assert np.array_equal(posterior_mean(MODEL, y), expect)
    assert log_density(DIST, [1, 2]) == log_density(DIST, [1.0, 2.0])
    assert origin_ball_mass(2, math.inf) == pytest.approx(1.0)  # the whole space


def test_large_orders_give_values():
    # a raw OverflowError before: (n-1)! is not a float past n = 171
    assert gen_exp_integral(501, 0.5) == pytest.approx(1.21184704627e-3, rel=1e-11)
    assert gen_exp_integral(1e4, 0.5) == pytest.approx(6.06560984729e-5, rel=1e-11)
    assert math.isfinite(gen_exp_integral(308.03, 3.4e-4))
    assert math.isfinite(radial_log_density(343, 0.01))
