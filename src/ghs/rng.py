"""Seeding helpers.

Every stochastic operation in the package takes an explicit integer seed and
builds its generator through :func:`make_rng`, so runs are bit-reproducible;
a seed that is not an integer >= 0 (1.5, NaN, "7") raises DomainError.
Parallel work derives disjoint child seeds with :func:`split_seed` instead of
sharing one stream.
"""

import numpy as np

from .errors import _check_integer


def make_rng(seed):
    """Return a fresh PCG64 generator for an integer seed >= 0."""
    return np.random.default_rng(np.random.SeedSequence(_check_integer(seed, "seed")))


def split_seed(seed, *path):
    """Derive a child seed from a master seed and an integer path.

    Children for distinct paths are statistically independent; the same
    (seed, path) pair always yields the same child.  Path entries, like the
    seed, are integers >= 0.
    """
    key = tuple(_check_integer(p, "seed path entry") for p in path)
    ss = np.random.SeedSequence(_check_integer(seed, "seed"), spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])
