"""Seeding helpers.

Every stochastic operation in the package takes an explicit integer seed and
builds its generator through :func:`make_rng`, so runs are bit-reproducible;
a seed that is not an integer >= 0 (1.5, NaN, "7") raises DomainError.
Parallel work derives disjoint child seeds with :func:`split_seed` instead of
sharing one stream.
"""

import operator

import numpy as np

from .errors import DomainError


def _seed(seed, name="seed"):
    """``seed`` as an int; DomainError unless it is an integer >= 0."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise DomainError(f"{name} must be a nonnegative integer, got {seed!r}")
    return value


def make_rng(seed):
    """Return a fresh PCG64 generator for an integer seed >= 0 (or SeedSequence)."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(_seed(seed)))


def split_seed(seed, *path):
    """Derive a child seed from a master seed and an integer path.

    Children for distinct paths are statistically independent; the same
    (seed, path) pair always yields the same child.  Path entries, like the
    seed, are integers >= 0.
    """
    key = tuple(_seed(p, "seed path entry") for p in path)
    ss = np.random.SeedSequence(_seed(seed), spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])
