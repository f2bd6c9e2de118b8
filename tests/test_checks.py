"""A wrong-typed argument to a public entry point raises the GhsError that
its contract names, never a raw TypeError or ValueError.

Integers (``operator.index``: 2.0 is not one), whole numbers (1e3 is one,
"5" and 2.5 are not), finite reals (not strings) and arrays of reals (not of
strings, "1.5" included, nor of complex numbers) are decided by the checks
in ``ghs.errors``.  Each case below raised a raw error, or
was accepted, before those checks.  A value past the float range raises
NumericalError, with no RuntimeWarning: pyproject.toml makes one an error in
every test.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

import ghs.posterior
import ghs.risk
import ghs.specfun
from ghs.distribution import (
    GhsDistribution,
    density,
    log_density,
    radial_log_density,
    sample_arrays,
    sample_blocks,
)
from ghs.errors import (
    ConfigError,
    DegenerateError,
    DimensionError,
    DomainError,
    LengthError,
    NumericalError,
)
from ghs.gamsel import (
    AdditiveModelSpec,
    GibbsChain,
    Hyper,
    ThresholdReport,
    build_design,
    classify,
    gamma_statistics,
    generate_data,
    kmeans_threshold,
    misclassification_rate,
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
from ghs.quadrature import adaptive_quad
from ghs.risk import (
    RiskScenario,
    cesaro_risk_mc,
    kl_ball_prior_mass,
    kl_ball_radius,
    origin_ball_mass,
    risk_upper_bound,
)
from ghs.rng import make_rng
from ghs.specfun import (
    exp_scaled_expint,
    exp_scaled_gen_exp_integral,
    gen_exp_integral,
    kummer_1f1,
    log_kummer_1f1,
    log_phi1,
    phi1,
)
from ghs.study import StudyConfig

DIST = GhsDistribution(2)
MODEL = PosteriorModel(2)
SIDE = SideModel(2, 1.0, 1.0)
SPEC = AdditiveModelSpec(n=50, d_lin=1, d_nl=1, basis_size=4)
REPORT = ThresholdReport(gamma_beta=[0.6, 0.2], gamma_u=[None, 0.7])
SCENARIO = RiskScenario(1)
X = np.linspace(0.0, 1.0, 20)
EMPTY = np.empty((0, 1))

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
    # a raw OverflowError (int too large to convert to float) before, or accepted
    "kl_ball_radius(10**400)": (lambda: kl_ball_radius(SCENARIO, 10**400), DomainError),
    "kl_ball_prior_mass(10**400)": (lambda: kl_ball_prior_mass(SCENARIO, 10**400), DomainError),
    "risk_upper_bound(10**400)": (lambda: risk_upper_bound(SCENARIO, 10**400), DomainError),
    "cesaro_risk_mc(10**400)": (lambda: cesaro_risk_mc(SCENARIO, 10**400, 10, 1), DomainError),
    "RiskScenario n_grid (10**400,)": (lambda: RiskScenario(2, n_grid=(10**400,)), DomainError),
    "origin_ball_mass(2, 10**400)": (lambda: origin_ball_mass(2, 10**400), DomainError),
    # a raw OverflowError (int too large to convert to float) or NumPy's ValueError
    # before, or accepted: a dimension's lgamma((d + 1)/2) is a float
    "radial_log_density(10**400, 1.0)": (lambda: radial_log_density(10**400, 1.0), DomainError),
    "origin_ball_mass(10**400, 1.0)": (lambda: origin_ball_mass(10**400, 1.0), DomainError),
    "RiskScenario(10**400)": (lambda: RiskScenario(10**400), DomainError),
    "sample_arrays(GhsDistribution(10**400))": (
        lambda: sample_arrays(GhsDistribution(10**400), 1, 1), DomainError
    ),
    "GhsDistribution(10**306)": (lambda: GhsDistribution(10**306), DomainError),
    "PosteriorModel(10**400)": (lambda: PosteriorModel(10**400), DomainError),
    "SideModel(10**400, 1, 1)": (lambda: SideModel(10**400, 1.0, 1.0), DomainError),
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
    # a raw TypeError or ValueError before: past the scaled range, x is not a scalar
    "gen_exp_integral(-150, [0.5])": (lambda: gen_exp_integral(-150, [0.5]), DomainError),
    "gen_exp_integral(-150, [0.5, 0.6])": (
        lambda: gen_exp_integral(-150, np.array([0.5, 0.6])), DomainError
    ),
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
    "exp_scaled_gen_exp_integral(-150, 0.5)": (
        lambda: exp_scaled_gen_exp_integral(-150, 0.5), NumericalError
    ),
    "gen_exp_integral(-150.5, 0.5)": (lambda: gen_exp_integral(-150.5, 0.5), NumericalError),
    "gen_exp_integral(-1e6, 1)": (lambda: gen_exp_integral(-1e6, 1.0), NumericalError),
    "gen_exp_integral(0.001, 1e-310)": (
        lambda: gen_exp_integral(0.001, 1e-310), NumericalError
    ),
    # an overflow RuntimeWarning before: a float32 bound is inf
    "GhsDistribution sigma_theta float32 inf": (
        lambda: GhsDistribution(2, np.float32("inf")), DomainError
    ),
    # an overflow RuntimeWarning before: ||y||^2 passes the float range
    "posterior_mean(PosteriorModel(1), [1e308])": (
        lambda: posterior_mean(PosteriorModel(1), [1e308]), DomainError
    ),
    # a raw ValueError before: sigma^2 underflows to 0
    "cesaro_risk_mc sigma 1e-200": (
        lambda: cesaro_risk_mc(RiskScenario(1, 1e-200), 100, 10, 1), NumericalError
    ),
    # an overflow RuntimeWarning before: n / sigma^2 underflows, or ||theta0||^2 overflows
    "cesaro_risk_mc sigma 1e200": (
        lambda: cesaro_risk_mc(RiskScenario(1, 1e200), 100, 10, 1), NumericalError
    ),
    "cesaro_risk_mc theta0 1e200": (
        lambda: cesaro_risk_mc(RiskScenario(1, 1.0, (1e200,)), 100, 10, 1), NumericalError
    ),
    # inf draws, with an overflow RuntimeWarning, before
    "sample_arrays(GhsDistribution(2, 1e308), 1e5)": (
        lambda: sample_arrays(GhsDistribution(2, 1e308), 100_000, 1), NumericalError
    ),
    "sample_blocks(GhsDistribution(2, 1e308), 1e5)": (
        lambda: list(sample_blocks(GhsDistribution(2, 1e308), 100_000, 1, 4096)), NumericalError
    ),
    # raw TypeError before: labels and truth are sequences
    "misclassification_rate(None, ['zero'])": (
        lambda: misclassification_rate(None, ["zero"]), DomainError
    ),
    # a raw ZeroDivisionError from .rate before: no labels, no rate
    "misclassification_rate([], [])": (lambda: misclassification_rate([], []), DegenerateError),
    # raw TypeError from tuple(truth) before: truth is a list of labels
    "generate_data truth 5": (lambda: generate_data(SPEC, 1.0, 1, truth=5), ConfigError),
    # one label before: zip dropped the statistic that had no partner
    "classify gamma_u shorter than gamma_beta": (
        lambda: classify(ThresholdReport([0.6, 0.7], [None])), LengthError
    ),
    # raised before, but reached by no test
    "AdditiveModelSpec basis_size (4, 4) for d_nl 1": (
        lambda: AdditiveModelSpec(n=50, d_lin=1, d_nl=1, basis_size=(4, 4)), ConfigError
    ),
    "spline_basis 2-D x": (lambda: spline_basis(np.ones((20, 2)), 4), DimensionError),
    "build_design dataset of another shape": (
        lambda: build_design(generate_data(SPEC, 1.0, 1), AdditiveModelSpec(60, 1, 1, 4)),
        DimensionError,
    ),
    "gamma_statistics chain of no draws": (
        lambda: gamma_statistics(GibbsChain(*[EMPTY] * 3, [], *[EMPTY] * 5, SPEC)), ConfigError
    ),
    "StudyConfig truth of length 2 for 3": (
        lambda: StudyConfig(d_lin=1, d_nl=2, truth=("zero", "linear")), ConfigError
    ),
    "StudyConfig iters == burn": (lambda: StudyConfig(iters=100, burn=100), ConfigError),
    "exp_scaled_expint ragged [1, [2]]": (lambda: exp_scaled_expint(1.5, [1, [2]]), DomainError),
    # raised before, but reached by no test: outside log 1F1's positive-value domain
    "log_kummer_1f1(-0.5, 1.0, 2.0)": (lambda: log_kummer_1f1(-0.5, 1.0, 2.0), DomainError),
    "log_kummer_1f1(2.0, 1.0, -3.0)": (lambda: log_kummer_1f1(2.0, 1.0, -3.0), DomainError),
    "log_kummer_1f1(1.0, -0.5, 1.0)": (lambda: log_kummer_1f1(1.0, -0.5, 1.0), DomainError),
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


# (module constant to patch or None, call, message): a failure branch that no
# other test reached
FAILURES = {
    "mixture weight unresolved": (
        (ghs.posterior, "_LEVEL_RTOL", 0.0),
        lambda: marginal_log_density(MODEL, [1.0, 2.0]), "the weight is not resolved",
    ),
    "incomplete beta fraction": (
        (ghs.risk, "_MAX_TERMS", 4),
        lambda: kl_ball_prior_mass(RiskScenario(2, 1.0, (1.0, 0.0)), 100), "did not converge",
    ),
    # a ball through the origin with R = ||theta0|| = 1e40: the crossing
    # range's nodes start at s ~ 1e3, far above the prior's mass
    "shell rule unresolved": (
        None,
        lambda: kl_ball_prior_mass(RiskScenario(2, 1e40, (1e40, 0.0)), 2), "shell rule is not resolved",
    ),
    "E_nu series": ((ghs.specfun, "_MAX_TERMS", 2), lambda: exp_scaled_expint(1.5, 0.5), "series did not converge"),
    "E_nu continued fraction": (
        (ghs.specfun, "_MAX_TERMS", 2), lambda: exp_scaled_expint(1.5, 5.0), "continued fraction stalled",
    ),
    "quadrature value not finite": (None, lambda: adaptive_quad(lambda x: math.inf, 0.0, 1.0), "returned inf"),
    "quadrature error too large": (None, lambda: adaptive_quad(lambda x: 1.0 / x, 0.0, 1.0), "too large"),
}


@pytest.mark.parametrize("name", FAILURES)
def test_failure_branch_is_a_numerical_error(name, monkeypatch):
    patch, call, message = FAILURES[name]
    if patch:
        monkeypatch.setattr(*patch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            call()


def test_valid_inputs_still_accepted():
    # the checks return plain Python values; NumPy scalars and whole floats
    # pass where the contract allows them
    assert GhsDistribution(np.int64(2)).d == 2
    assert RiskScenario(2, np.float64(1.5), (np.float64(1.0), 0), (1e3,)).n_grid == (1000,)
    assert kl_ball_radius(RiskScenario(2), 8.0) == kl_ball_radius(RiskScenario(2), 8)
    assert generate_data(SPEC, 0, 1).y.shape == (50,)
    assert classify(REPORT, border=np.float64(0.5), border_u=0) == ["linear", "non-linear"]
    # vectors of ints, bools, float32 or big Python ints are real numbers; a norm
    # past int64 is past the posterior kernel's reach, so the density takes the big ints
    for y in ([1, 2], [True, False], np.array([1.5, 2.0], dtype=np.float32)):
        expect = posterior_mean(MODEL, np.array([float(v) for v in y]))
        assert np.array_equal(posterior_mean(MODEL, y), expect)
    assert log_density(DIST, [1, 2]) == log_density(DIST, [1.0, 2.0])
    assert log_density(DIST, [10**30, 1]) == log_density(DIST, [1e30, 1.0])
    assert origin_ball_mass(2, math.inf) == pytest.approx(1.0)  # the whole space
    # an overflow RuntimeWarning before: float32 and float16 cast the bound
    for small in (np.float32, np.float16):
        assert GhsDistribution(2, small(1.5)).sigma_theta == 1.5
        assert PosteriorModel(2, small(0.5)).tau == 0.5
        assert kummer_1f1(small(0.5), 1.5, 2.0) == kummer_1f1(0.5, 1.5, 2.0)
        assert Hyper(s_beta=small(1)).s_beta == 1


def test_origin_scenario_builds_no_zero_tuple():
    # a MemoryError before: the origin was a tuple of d zeros
    assert RiskScenario(10**12).theta0 == ()


def test_kmeans_threshold_past_the_square_range():
    # raw TypeError, after five overflow RuntimeWarnings, before
    assert kmeans_threshold([1e308, 1.0, 2.0]) == (1.5 + 1e308) / 2
    assert kmeans_threshold([-1e308, 1e308]) == 0.0


@pytest.mark.parametrize("value", [0.1, 0.3, 1 / 3, 0.5])
def test_constant_predictor_is_degenerate(value):
    # accepted before at 0.1, 0.3 and 1/3: the rounded mean left a std of 1e-17,
    # and the standardized column was a second intercept
    spec = AdditiveModelSpec(n=60, d_lin=1, d_nl=1, basis_size=4)
    data = generate_data(spec, 1.0, 1)
    data.x[:, 0] = value
    with pytest.raises(DegenerateError):
        build_design(data, spec)


def test_large_orders_give_values():
    # a raw OverflowError before: (n-1)! is not a float past n = 171
    assert gen_exp_integral(501, 0.5) == pytest.approx(1.21184704627e-3, rel=1e-11)
    assert gen_exp_integral(1e4, 0.5) == pytest.approx(6.06560984729e-5, rel=1e-11)
    assert math.isfinite(gen_exp_integral(308.03, 3.4e-4))
    assert math.isfinite(radial_log_density(343, 0.01))


def test_negative_order_past_the_scaled_range_gives_value():
    # NumericalError before: exp(x) E_nu(x) = 2.7e308 overflows where E_nu(x)
    # = 1.63e308 does not, so the recurrence carries its value as f 2^k
    for nu, x in [(-150, 0.5), (-170, 1.7)]:
        with mp.workdps(30):
            expect = float(mp.expint(nu, x))
        assert gen_exp_integral(nu, x) == pytest.approx(expect, rel=1e-13)


def test_runtime_warning_is_an_error():
    # the suite's rule, declared once in pyproject.toml's filterwarnings
    with pytest.raises(RuntimeWarning):
        np.exp(np.float64(1000.0))
