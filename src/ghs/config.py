"""Evaluation settings for the special-function kernel."""

from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class SpecFunConfig:
    """Tolerances of the series and continued fractions (E_nu and the 1F1
    Taylor series); the Euler-integral quadrature of 1F1 and Phi1 has a
    fixed rule and takes none of them.

    rel_tol
        Target relative accuracy: a series stops a margin below it, and a
        1F1 series whose rounding in its largest term exceeds it is refused.
    abs_tol
        Absolute floor used when the true value may be ~0.
    max_terms
        Hard cap on series/continued-fraction iterations.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-300
    max_terms: int = 10_000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ConfigError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ConfigError("max_terms must be at least 1")


DEFAULT_CONFIG = SpecFunConfig()
