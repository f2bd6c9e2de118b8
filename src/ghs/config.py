"""Evaluation settings for the special-function kernel."""

from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class SpecFunConfig:
    """Tolerances and regime switches for series/continued-fraction evaluation.

    rel_tol
        Target relative accuracy of every special-function value.
    abs_tol
        Absolute floor used when the true value may be ~0.
    max_terms
        Hard cap on series/continued-fraction iterations.
    asymptotic_switch
        Kummer-function dispatch: the large-argument expansion is tried
        once ``|x| > asymptotic_switch * |b|`` (or ``|x| > max_terms / 2``
        and ``|x| > 2 |b|``) and used if the term it drops is negligible
        and its sum converges.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-300
    max_terms: int = 10_000
    asymptotic_switch: float = 30.0

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ConfigError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ConfigError("max_terms must be at least 1")
        if not self.asymptotic_switch > 0:
            raise ConfigError("asymptotic_switch must be positive")


DEFAULT_CONFIG = SpecFunConfig()
