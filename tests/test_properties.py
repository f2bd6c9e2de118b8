"""Property tests of the public entry points, driven by ``hypothesis``.

For any valid model and any finite y, each entry point returns a finite
value or raises a GhsError, and never a RuntimeWarning (pyproject.toml makes
one an error).  The same holds for the Monte Carlo Cesaro risk, the mixture
kernel's other caller, over any normal sigma and theta0; and the density,
at any finite point and any radius up to inf, gives a value that is not NaN
(+inf at the pole, -inf or 0 past the float range) or a GhsError.  The
draws are derandomized and their number fixed, so the module runs the same
examples on every run.
"""

import math
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ghs.distribution import GhsDistribution, density, log_density, radial_log_density
from ghs.errors import GhsError
from ghs.posterior import (
    PosteriorModel,
    SideModel,
    marginal_log_density,
    posterior_mean,
    score,
    side_model_shrinkage,
)
from ghs.risk import RiskScenario, cesaro_risk_mc

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
