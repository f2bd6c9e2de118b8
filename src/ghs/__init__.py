"""Grouped-horseshoe distribution toolkit.

Closed-form density and exact sampler for the d-variate normal scale
mixture with one shared half-Cauchy scale; posterior shrinkage quantities
for the unit-noise observation model; KL-ball risk bounds; and a Gibbs
sampler for additive-model selection with (grouped) horseshoe priors.
"""

import importlib

from .distribution import (
    GhsDistribution,
    density,
    log_density,
    sample_arrays,
)
from .errors import (
    ConfigError,
    DegenerateError,
    DimensionError,
    DomainError,
    GhsError,
    LengthError,
    NumericalError,
)
from .posterior import (
    PosteriorModel,
    SideModel,
    marginal_log_density,
    posterior_mean,
    score,
    side_model_shrinkage,
)
from .risk import RiskScenario, cesaro_risk_mc, kl_ball_prior_mass, risk_upper_bound
from .rng import make_rng, split_seed
from .specfun import (
    exp_scaled_gen_exp_integral,
    gen_exp_integral,
    kummer_1f1,
    phi1,
)

__version__ = "0.1.0"

# The Gibbs sampler and the study runner load on first use: their import takes
# about 50 ms per `python -X importtime` (concurrent.futures.process alone about
# 20 ms), which the density, sampler, posterior and risk never need.  SciPy
# waits longer still: gamsel imports scipy.linalg where the sampler calls it.
_LAZY = {
    "gamsel": ("AdditiveModelSpec", "Dataset", "GibbsChain", "Hyper", "MisclassRate",
               "ThresholdReport", "classify", "gamma_statistics", "generate_data",
               "gibbs_sampler", "kmeans_threshold", "misclassification_rate", "spline_basis"),
    "study": ("StudyConfig", "run_study"),
}

# every name imported above but the submodules, and the lazy ones
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, type(importlib))]
    + [name for names in _LAZY.values() for name in names]
)


def __getattr__(name):
    if name in _LAZY:  # `ghs.study` after a bare `import ghs`
        return importlib.import_module(f"{__name__}.{name}")
    for module, names in _LAZY.items():
        if name in names:
            globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
