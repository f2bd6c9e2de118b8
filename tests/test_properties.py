"""Property tests of the public entry points, driven by ``hypothesis``.

For any valid model and any finite y, each entry point returns a finite
value or raises a GhsError, and never a RuntimeWarning (pyproject.toml makes
one an error).  The same holds for the Monte Carlo Cesaro risk, the mixture
kernel's other caller, over any normal sigma and theta0; and the density,
at any finite point and any radius up to inf, gives a value that is not NaN
(+inf at the pole, -inf or 0 past the float range) or a GhsError.  The KL-ball
masses and the risk bound give a mass in (0, 1] and a finite bound or a
GhsError, with no warning at all, and a GhsError for any argument of the
wrong kind; so do the special functions, 1F1, Phi1 and E_nu, whose limit at
x = inf is 0, and the selection study's entry points that take numbers,
arrays, label lists or a config dict.  The density, sample and risk
subcommands, run through ``ghs.cli.main``, write a table that parses or exit
with a typed JSON error, and leave no temporary file.  The draws are
derandomized and their number fixed, so the module runs the same examples on
every run.
"""

import builtins
import contextlib
import io
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ghs.errors
from ghs.cli import main as cli_main
from ghs.distribution import GhsDistribution, density, log_density, radial_log_density
from ghs.errors import GhsError
from ghs.gamsel import (
    LABELS,
    AdditiveModelSpec,
    Hyper,
    ThresholdReport,
    classify,
    gamma_statistics,
    generate_data,
    gibbs_sampler,
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
from ghs.risk import (
    RiskScenario,
    cesaro_risk_mc,
    kl_ball_prior_mass,
    kl_ball_radius,
    origin_ball_mass,
    risk_upper_bound,
)
from ghs.specfun import (
    exp_scaled_expint,
    exp_scaled_gen_exp_integral,
    gen_exp_integral,
    kummer_1f1,
    phi1,
)
from ghs.study import StudyConfig

# any tau whose square is a finite normal float, as PosteriorModel accepts:
# from the north-star range [1e-3, 1e3], or log-uniform over the whole range
TAUS = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(-154.0, 154.0).map(lambda e: 10.0**e).filter(
        lambda t: sys.float_info.min <= t * t < math.inf
    ),
)
# any finite y; half of them with elements in [-1e4, 1e4], where the kernel
# mostly gives a value rather than an error
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def posterior_cases(draw):
    d = draw(st.integers(1, 100))
    elements = draw(st.sampled_from([st.floats(-1e4, 1e4), FINITE]))
    y = draw(arrays(np.float64, d, elements=elements))
    return d, draw(TAUS), draw(TAUS), y


def value_or_error(fn, *args):
    """fn(*args), or None if it raises a GhsError."""
    try:
        return fn(*args)
    except GhsError:
        return None


@given(posterior_cases())
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_posterior_entry_points(case):
    d, tau, tau1, y = case
    model = PosteriorModel(d, tau)
    log_p = value_or_error(marginal_log_density, model, y)
    assert log_p is None or math.isfinite(log_p)
    grad = value_or_error(score, model, y)
    mean = value_or_error(posterior_mean, model, y)
    # the two share the kernel's D/C, so they fail together
    assert (grad is None) == (mean is None)
    if mean is not None:
        assert np.all(np.isfinite(grad)) and np.all(np.isfinite(mean))
        assert np.array_equal(mean, y + grad)
        assert np.all(np.abs(mean) <= np.abs(y))
    side = value_or_error(lambda: side_model_shrinkage(SideModel(d, tau1, tau), y))
    assert side is None or 0.0 <= side <= 1.0


# any positive normal float: from [1e-3, 1e3], where the risk mostly has a
# value, uniform over the floats, or log-uniform over their range
NORMAL = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=sys.float_info.min, max_value=sys.float_info.max),
    st.floats(-307.0, 308.0).map(lambda e: 10.0**e),
)


@st.composite
def cesaro_cases(draw):
    d = draw(st.integers(1, 10))
    theta0 = draw(st.lists(st.tuples(NORMAL, st.booleans()), min_size=d, max_size=d))
    scenario = RiskScenario(d, draw(NORMAL), tuple(-t if neg else t for t, neg in theta0))
    return scenario, draw(st.integers(2, 10**8)), draw(st.integers(2, 20)), draw(st.integers(0, 2**32))


@given(cesaro_cases())
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_cesaro_risk_mc(case):
    scenario, n, reps, seed = case
    risk = value_or_error(cesaro_risk_mc, scenario, n, reps, seed)
    assert risk is None or math.isfinite(risk.estimate) and math.isfinite(risk.std_error)


@st.composite
def density_cases(draw):
    d = draw(st.integers(1, 100))
    elements = draw(st.sampled_from([st.floats(-1e4, 1e4), FINITE]))
    x = draw(arrays(np.float64, d, elements=elements))
    return d, x, draw(st.floats(min_value=0.0, allow_nan=False))


@given(density_cases())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_density_entry_points(case):
    d, x, r = case
    dist = GhsDistribution(d)
    log_p = value_or_error(log_density, dist, x)
    assert log_p is None or not math.isnan(log_p)
    p = value_or_error(density, dist, x)
    assert p is None or not math.isnan(p)
    # the point's row of a stack gets the point's bits
    stacked = value_or_error(log_density, dist, np.array([x, -x]))
    assert stacked is None or stacked.tolist() == [log_p, log_p]
    radial = value_or_error(radial_log_density, d, r)
    assert radial is None or not math.isnan(radial)


@st.composite
def risk_cases(draw):
    """A scenario of the north-star box and n in 2..1e12: d in 1..100, sigma
    log-uniform in [1e-3, 1e3], ||theta0|| 0 or log-uniform in [1e-3, 1e4], on
    an axis or the diagonal."""
    d = draw(st.integers(1, 100))
    c = draw(st.one_of(st.just(0.0), st.floats(-3.0, 4.0).map(lambda e: 10.0**e)))
    theta0 = (c / math.sqrt(d),) * d if draw(st.booleans()) else (c,) + (0.0,) * (d - 1)
    n = draw(st.one_of(st.integers(2, 10**12), st.floats(math.log10(2.0), 12.0).map(lambda e: round(10**e))))
    return RiskScenario(d, 10.0 ** draw(st.floats(-3.0, 3.0)), theta0), n


@given(risk_cases(), st.one_of(st.just(math.inf), st.floats(-300.0, 308.0).map(lambda e: 10.0**e)))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_risk_entry_points(case, radius):
    scenario, n = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mass = value_or_error(kl_ball_prior_mass, scenario, n)
        assert mass is None or 0.0 < mass <= 1.0
        bound = value_or_error(risk_upper_bound, scenario, n)
        assert bound is None or 0.0 < bound < math.inf
        mass = value_or_error(origin_ball_mass, scenario.d, radius)
        assert mass is None or 0.0 < mass <= 1.0


# no argument of any kind: strings, None, NaN, +-inf and an int past the float range
WRONG = st.sampled_from(["2", None, math.nan, math.inf, -math.inf, 10**400])


@st.composite
def wrong_risk_calls(draw):
    """One risk entry point with one argument of the wrong kind: a size that
    is WRONG or fractional, a real number that is WRONG (the radius may be
    inf), or a dimension that is WRONG."""
    scenario, n = draw(risk_cases())
    d, size = scenario.d, draw(st.one_of(WRONG, st.floats(2.0, 1e12).filter(lambda v: v % 1 != 0)))
    real, dim = draw(WRONG), draw(WRONG)
    calls = [
        ("kl_ball_radius", lambda: kl_ball_radius(scenario, size)),
        ("kl_ball_prior_mass", lambda: kl_ball_prior_mass(scenario, size)),
        ("risk_upper_bound", lambda: risk_upper_bound(scenario, size)),
        ("RiskScenario n_grid", lambda: RiskScenario(d, 1.0, (), (n, size))),
        ("RiskScenario sigma", lambda: RiskScenario(d, real)),
        ("RiskScenario theta0", lambda: RiskScenario(d, 1.0, (real,) + (0.0,) * (d - 1))),
        ("RiskScenario d", lambda: RiskScenario(dim)),
        ("origin_ball_mass d", lambda: origin_ball_mass(dim, 1.0)),
    ]
    if real != math.inf:
        calls.append(("origin_ball_mass radius", lambda: origin_ball_mass(d, real)))
    return draw(st.sampled_from(calls))


@given(wrong_risk_calls())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_risk_entry_points_refuse_wrong_arguments(call):
    name, fn = call
    try:
        fn()
    except GhsError:
        return
    raise AssertionError(f"{name} took an argument of the wrong kind")


# the special functions over a log-uniform box: |a|, |b| in [1e-3, 1e3] and |x|
# up to 1e4 for 1F1 (Phi1 the same in beta and y, with x in [-1e3, 1)), and |nu|
# up to 1e3 and x in [1e-10, 1e3] for E_nu
def log_uniform(lo, hi, signed=False):
    magnitude = st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)
    if not signed:
        return magnitude
    return st.tuples(magnitude, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


PARAMETER = log_uniform(1e-3, 1e3, signed=True)
ARGUMENT = st.one_of(st.just(0.0), log_uniform(1e-10, 1e4, signed=True))
ORDER = st.one_of(st.just(0.0), st.integers(-20, 20).map(float), log_uniform(1e-3, 1e3, signed=True))
E_ARGUMENT = log_uniform(1e-10, 1e3)


@st.composite
def special_calls(draw):
    """One special function at a draw from the box, with its name."""
    a, b, x = draw(PARAMETER), draw(PARAMETER), draw(ARGUMENT)
    alpha = draw(log_uniform(1e-3, 1e3))
    gamma = alpha + draw(log_uniform(1e-3, 1e3))
    phi_x = draw(st.one_of(st.just(0.0), st.floats(-1e3, 0.999)))
    nu, e_x = draw(ORDER), draw(E_ARGUMENT)
    return draw(st.sampled_from([
        ("kummer_1f1", lambda: kummer_1f1(a, b, x)),
        ("phi1", lambda: phi1(alpha, b, gamma, phi_x, x)),
        ("gen_exp_integral", lambda: gen_exp_integral(nu, e_x)),
        ("exp_scaled_gen_exp_integral", lambda: exp_scaled_gen_exp_integral(nu, e_x)),
        ("exp_scaled_expint", lambda: exp_scaled_expint(nu, np.array([e_x, 2.0 * e_x]))),
    ]))


@given(special_calls())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_special_functions_give_a_value_or_a_ghs_error(call):
    name, fn = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = value_or_error(fn)
    assert value is None or np.all(np.isfinite(value)), name


SPECIAL = {  # name: (function, valid arguments)
    "kummer_1f1": (kummer_1f1, (0.5, 1.5, 2.0)),
    "phi1": (phi1, (0.5, 0.2, 1.5, 0.3, 2.0)),
    "gen_exp_integral": (gen_exp_integral, (1.5, 0.5)),
    "exp_scaled_gen_exp_integral": (exp_scaled_gen_exp_integral, (1.5, 0.5)),
    "exp_scaled_expint": (exp_scaled_expint, (1.5, 0.5)),
}


@st.composite
def wrong_special_calls(draw):
    """One special function with one argument that is WRONG."""
    name = draw(st.sampled_from(sorted(SPECIAL)))
    args = SPECIAL[name][1]
    slot = draw(st.integers(0, len(args) - 1))
    return name, args[:slot] + (draw(WRONG),) + args[slot + 1:]


@given(wrong_special_calls())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_special_functions_refuse_wrong_arguments(call):
    name, args = call
    try:
        value = SPECIAL[name][0](*args)
    except GhsError:
        return
    # but x = inf is E_nu's limit, 0
    assert name not in ("kummer_1f1", "phi1") and args[1] == math.inf and np.all(value == 0.0), (name, args)


def test_exponential_integral_at_infinity_is_zero():
    for nu in (-2.5, 0.0, 1.5, 40.0):
        assert gen_exp_integral(nu, math.inf) == 0.0
        assert exp_scaled_gen_exp_integral(nu, math.inf) == 0.0
        assert exp_scaled_expint(nu, [math.inf, 1.0])[0] == 0.0


# the selection study: one tiny model and dataset for the sampler's arguments,
# and one report of shrinkage statistics for the borders
SPEC = AdditiveModelSpec(n=30, d_lin=1, d_nl=2, basis_size=3)
DATA = generate_data(SPEC, 0.5, 1)
REPORT = ThresholdReport(gamma_beta=[0.3, 0.6, 0.8], gamma_u=[None, 0.4, 0.9])
STUDY = {"n": [200], "sigma_eps": [0.5], "replications": 1, "d_lin": 1, "d_nl": 2, "basis_size": 4,
         "iters": 40, "burn": 10, "seed": 7, "truth": [], "save_chains": False, "threads": 1,
         "hyper": {"s_beta": 1.0}}
# values in [0, 1], as the statistics are, or any finite float
VALUES = st.sampled_from([st.floats(0.0, 1.0), FINITE])
SEEDS = st.integers(0, 2**80)
LABEL_LISTS = st.lists(st.sampled_from(LABELS), min_size=1, max_size=10)


def labels_like(labels):
    """Two label lists of the length of ``labels``."""
    return st.tuples(st.just(labels), st.lists(st.sampled_from(LABELS), min_size=len(labels), max_size=len(labels)))


def study_doc(args):
    d_lin, d_nl, n, sigma_eps, basis_size, burn, extra, seed = args
    return (dict(STUDY, d_lin=d_lin, d_nl=d_nl, n=[n], sigma_eps=[sigma_eps], basis_size=basis_size,
                 burn=burn, iters=burn + extra, seed=seed),)


SELECTION = {  # entry point: (function, strategy of its valid arguments, check of its value)
    "spline_basis": (
        spline_basis,
        st.tuples(st.integers(1, 40).flatmap(lambda m: VALUES.flatmap(lambda v: arrays(np.float64, m, elements=v))),
                  st.integers(2, 8)),
        lambda z: np.all(np.isfinite(z)),
    ),
    "generate_data": (
        generate_data,
        st.tuples(st.just(SPEC), st.one_of(st.floats(0.0, 10.0), st.floats(0.0, sys.float_info.max)), SEEDS,
                  st.one_of(st.none(), st.lists(st.sampled_from(LABELS), min_size=3, max_size=3))),
        lambda data: np.all(np.isfinite(data.y)),
    ),
    "gibbs_sampler": (
        lambda *args: gamma_statistics(gibbs_sampler(DATA, SPEC, *args)),
        st.integers(0, 6).flatmap(lambda burn: st.tuples(st.integers(burn + 1, burn + 6), st.just(burn), SEEDS)),
        lambda report: all(0.0 <= g <= 1.0 for g in report.gamma_beta + report.gamma_u[1:]),
    ),
    "classify": (
        classify,
        st.tuples(st.just(REPORT), st.floats(-2.0, 2.0), st.one_of(st.none(), st.floats(-2.0, 2.0))),
        lambda labels: set(labels) <= set(LABELS),
    ),
    "kmeans_threshold": (
        kmeans_threshold,
        st.tuples(st.lists(st.integers(1, 4), min_size=1, max_size=3).flatmap(
            lambda shape: VALUES.flatmap(lambda v: arrays(np.float64, shape, elements=v)))),
        math.isfinite,
    ),
    "misclassification_rate": (
        misclassification_rate, LABEL_LISTS.flatmap(labels_like), lambda m: 0.0 <= m.rate <= 1.0,
    ),
    "Hyper": (Hyper, st.tuples(*[st.floats(1e-154, sys.float_info.max)] * 4), lambda hyper: True),
    "AdditiveModelSpec": (
        AdditiveModelSpec,
        st.tuples(st.integers(1, 10**6), st.integers(0, 10**18), st.integers(0, 50)).flatmap(
            lambda sizes: st.tuples(*map(st.just, sizes), st.one_of(
                st.integers(2, sys.maxsize), st.lists(st.integers(2, 20), min_size=sizes[2], max_size=sizes[2])))),
        lambda spec: True,
    ),
    "StudyConfig.from_dict": (
        StudyConfig.from_dict,
        st.tuples(st.integers(0, 20), st.integers(2, 20), st.integers(1, 10**6), st.floats(0.0, 10.0),
                  st.integers(2, 20), st.integers(0, 10**6), st.integers(1, 10**6), SEEDS).map(study_doc),
        lambda config: True,
    ),
}


@pytest.mark.parametrize("name", SELECTION)
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_selection_entry_points(name, data):
    fn, args, check = SELECTION[name]
    args = data.draw(args)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # the spec warns, as it should, when n does not exceed the coefficient count
        warnings.simplefilter("ignore", UserWarning)
        value = value_or_error(fn, *args)
    assert value is None or check(value), (name, args)


# a count takes no fraction either; a seed of any size is a seed, and None is
# the default of an optional argument
INTEGER_WRONG = st.one_of(WRONG, st.just(1.5))
SEED_WRONG = st.sampled_from(["2", None, math.nan, math.inf, -math.inf, 1.5])
OPTIONAL_WRONG = st.sampled_from(["2", math.nan, math.inf, -math.inf, 10**400])
EMPTY_OR_RAGGED = st.sampled_from([[], [[0.1], [0.2, 0.3]]])
ARRAY_WRONG = st.one_of(EMPTY_OR_RAGGED, st.just(np.ones((20, 2))))
# entries that are not strings, so not labels; "Zero" is a string, but not a label
NOT_STRINGS = st.sampled_from([None, math.nan, math.inf, -math.inf, 10**400, 0, ["zero"], np.array([0, 1])])


def with_last(labels, entries):
    """A list of ``labels`` whose last entry is drawn from ``entries``."""
    return st.tuples(labels, entries).map(lambda p: p[0][:-1] + [p[1]])


STUDY_INTEGERS = ("n", "replications", "threads", "d_lin", "d_nl", "basis_size", "iters", "burn")
HYPER_FIELDS = st.sampled_from(sorted(Hyper.__dataclass_fields__))


def study_field(field):
    """A study config with ``field`` of the wrong kind."""
    wrong = SEED_WRONG if field == "seed" else INTEGER_WRONG if field in STUDY_INTEGERS else WRONG
    return wrong.map(lambda v: (dict(STUDY, **{field: v}),))


WRONG_SELECTION = {  # entry point and argument: (function, strategy of its arguments)
    "spline_basis x": (spline_basis, st.tuples(st.one_of(WRONG, ARRAY_WRONG), st.just(4))),
    "spline_basis K": (spline_basis, st.tuples(st.just(np.linspace(0.0, 1.0, 20)), INTEGER_WRONG)),
    "generate_data sigma_eps": (generate_data, st.tuples(st.just(SPEC), WRONG, st.just(1))),
    "generate_data seed": (generate_data, st.tuples(st.just(SPEC), st.just(0.5), SEED_WRONG)),
    "generate_data truth": (
        generate_data, st.tuples(st.just(SPEC), st.just(0.5), st.just(1), st.one_of(
            OPTIONAL_WRONG,
            with_last(st.lists(st.sampled_from(LABELS), min_size=3, max_size=3), st.one_of(NOT_STRINGS, st.just("Zero"))),
        ))
    ),
    "gibbs_sampler iters": (gibbs_sampler, st.tuples(st.just(DATA), st.just(SPEC), INTEGER_WRONG, st.just(0), st.just(1))),
    "gibbs_sampler burn": (gibbs_sampler, st.tuples(st.just(DATA), st.just(SPEC), st.just(5), INTEGER_WRONG, st.just(1))),
    "gibbs_sampler seed": (gibbs_sampler, st.tuples(st.just(DATA), st.just(SPEC), st.just(5), st.just(0), SEED_WRONG)),
    "classify border": (classify, st.tuples(st.just(REPORT), WRONG)),
    "classify border_u": (classify, st.tuples(st.just(REPORT), st.just(0.5), OPTIONAL_WRONG)),
    # values of any shape, 2-D too, are one list to kmeans_threshold
    "kmeans_threshold": (kmeans_threshold, st.tuples(st.one_of(WRONG, EMPTY_OR_RAGGED))),
    "misclassification_rate labels": (misclassification_rate, st.tuples(WRONG, LABEL_LISTS)),
    "misclassification_rate truth": (
        misclassification_rate, with_last(LABEL_LISTS, NOT_STRINGS).map(lambda bad: ([LABELS[0]] * len(bad), bad))
    ),
    "Hyper": (lambda field, value: Hyper(**{field: value}), st.tuples(HYPER_FIELDS, WRONG)),
    "AdditiveModelSpec n": (AdditiveModelSpec, st.tuples(INTEGER_WRONG, st.just(1), st.just(1))),
    "AdditiveModelSpec d_lin": (AdditiveModelSpec, st.tuples(st.just(30), INTEGER_WRONG, st.just(1))),
    "AdditiveModelSpec d_nl": (AdditiveModelSpec, st.tuples(st.just(30), st.just(1), INTEGER_WRONG)),
    "AdditiveModelSpec basis_size": (
        AdditiveModelSpec, st.tuples(st.just(30), st.just(1), st.integers(0, 2), INTEGER_WRONG)
    ),
    "AdditiveModelSpec hyper": (AdditiveModelSpec, st.tuples(st.just(30), st.just(1), st.just(1), st.just(4), WRONG)),
    "StudyConfig.from_dict field": (StudyConfig.from_dict, st.sampled_from(sorted(STUDY)).flatmap(study_field)),
    "StudyConfig.from_dict hyper field": (
        StudyConfig.from_dict, st.tuples(HYPER_FIELDS, WRONG).map(lambda p: (dict(STUDY, hyper={p[0]: p[1]}),))
    ),
    "StudyConfig.from_dict doc": (StudyConfig.from_dict, st.tuples(WRONG)),
}


@pytest.mark.parametrize("name", WRONG_SELECTION)
@given(data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
def test_selection_entry_points_refuse_wrong_arguments(name, data):
    fn, args = WRONG_SELECTION[name]
    args = data.draw(args)
    try:
        fn(*args)
    except GhsError:
        return
    raise AssertionError(f"{name} took an argument of the wrong kind: {args!r}")


# The CLI's density, sample and risk subcommands, through ghs.cli.main: argument
# lists over the north-star box (outputs of at most about 10^4 rows), each flag
# given as --flag=value so that a value may start with '-', and one flag or none
# holding a token of the wrong kind instead of its value.  A run exits 0 with
# an output that parses, or 1 with a JSON error naming a GhsError or an
# OSError; argparse exits 2 only where a typed flag's value is not of its type.
# No run leaves <out>.tmp behind.
WRONG_TOKENS = st.sampled_from(["x", "nan", "inf", "-inf", "1" + "0" * 400, "", ",", "1,,2", "2,x", "-3", "0"])
TYPED = {"--d": int, "--n": float, "--seed": int, "--sigma-theta": float, "--sigma": float}


def text(values):
    """A strategy of values as comma-joined reprs."""
    return values.map(lambda v: ",".join(map(repr, v)) if isinstance(v, list) else repr(v))


@st.composite
def cli_runs(draw):
    """(argv, points file bytes or None, whether argparse refuses a value) of one run."""
    command = draw(st.sampled_from(["density", "sample", "risk"]))
    d = draw(st.integers(1, 4 if command == "density" else 10))
    points = None
    if command == "density":
        count = draw(st.integers(1, int(10 ** (4 / d))))  # count^d <= 10^4 grid rows
        lo, step = draw(st.floats(-1e3, 1e3)), draw(log_uniform(1e-3, 1e3))
        flags = {"--d": st.just(repr(d)), "--sigma-theta": text(log_uniform(1e-3, 1e3))}
        if draw(st.booleans()):
            flags["--grid"] = st.just(f"{lo!r}:{lo + (count - 1) * step!r}:{step!r}")
        else:
            flags["--points-file"] = st.just("{dir}/points.txt")
            rows = draw(st.lists(st.lists(FINITE, min_size=d, max_size=d), max_size=50))
            lines = [" ".join(map(repr, row)).encode() for row in rows]
            if lines and draw(st.booleans()):  # one line of the wrong kind
                wrong = draw(st.sampled_from([b"\xff", b"x", b"nan " * d, b"inf " * d, b"1 " * (d + 1)]))
                lines[draw(st.integers(0, len(lines) - 1))] = wrong
            points = b"\n".join(lines)
    elif command == "sample":
        flags = {"--d": st.just(repr(d)), "--n": st.one_of(text(st.integers(1, 1000)), st.just("1e3")),
                 "--sigma-theta": text(log_uniform(1e-3, 1e3)), "--seed": text(st.integers(0, 2**64))}
    else:
        n_grid = st.lists(st.integers(2, 10**12), min_size=1, max_size=3)
        flags = {"--sigma": text(log_uniform(1e-3, 1e3)), "--n-grid": text(n_grid)}
        if draw(st.booleans()):
            flags["--d-list"] = text(st.lists(st.integers(1, 100), min_size=1, max_size=3))
        else:
            flags["--d-list"] = st.just(repr(d))
            flags["--theta0"] = text(st.lists(st.floats(-1e4, 1e4), min_size=d, max_size=d))
    wrong = draw(st.sampled_from([None, None, *sorted(flags)]))
    values = {flag: draw(WRONG_TOKENS if flag == wrong else strategy) for flag, strategy in flags.items()}

    def refused(flag, value):
        try:
            TYPED[flag](value)
        except ValueError:
            return True
        return False

    argv = [command, *(f"{flag}={value}" for flag, value in values.items()),
            f"--format={draw(st.sampled_from(['csv', 'json']))}"]
    return argv, points, any(refused(flag, value) for flag, value in values.items() if flag in TYPED)


@given(cli_runs())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_cli_subcommands_write_a_table_or_a_typed_error(run):
    argv, points, refused = run
    with tempfile.TemporaryDirectory() as tmp:
        if points is not None:
            with open(os.path.join(tmp, "points.txt"), "wb") as fh:
                fh.write(points)
        out = os.path.join(tmp, "out")
        argv = [a.replace("{dir}", tmp) for a in argv] + [f"--out={out}"]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                cli_main(argv)
                code = 0
            except SystemExit as exc:
                code = exc.code
        assert not os.path.exists(out + ".tmp"), argv
        assert (code == 2) == refused, (argv, stderr.getvalue())
        if code == 0:
            with open(out, encoding="utf-8") as fh:
                if argv[-2] == "--format=json":
                    assert isinstance(json.load(fh), list), argv
                else:
                    rows = [line.split(",") for line in fh.read().splitlines()]
                    assert {len(row) for row in rows} == {len(rows[0])}, argv
                    np.array(rows[1:], dtype=float)  # every cell a number
        elif code == 1:
            name = json.loads(stderr.getvalue())["error"]
            error = getattr(ghs.errors, name, None) or getattr(builtins, name)
            assert issubclass(error, (GhsError, OSError)), (argv, stderr.getvalue())
