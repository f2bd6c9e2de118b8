"""Seeding helpers.

Every stochastic operation in the package takes an explicit integer seed and
builds its generator through :func:`make_rng`, so runs are bit-reproducible.
Parallel work derives disjoint child seeds with :func:`split_seed` instead of
sharing one stream.
"""

import numpy as np

from .errors import DomainError


def make_rng(seed):
    """Return a fresh PCG64 generator for an integer seed >= 0 (or SeedSequence)."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if int(seed) < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def split_seed(seed, *path):
    """Derive a child seed from a master seed and an integer path.

    Children for distinct paths are statistically independent; the same
    (seed, path) pair always yields the same child.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
