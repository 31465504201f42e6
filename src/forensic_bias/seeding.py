"""Deterministic random-number streams for replicated experiments.

Every randomized routine in this package takes a numpy Generator.  For
replicated runs, each replicate gets its own generator derived from the
master seed and the replicate index, so results are independent of
execution order, and any single replicate can be re-created in
isolation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_SEED", "validate_seed", "substream"]

MAX_SEED = 2**64 - 1


def validate_seed(seed: int) -> int:
    """Check that a seed is an unsigned 64-bit integer and return it."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must lie in [0, 2**64 - 1], got {seed!r}")
    return seed


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for one replicate, reproducible from (seed, path) alone.

    Same (master_seed, path) always yields the same stream; different
    paths yield statistically independent streams.
    """
    validate_seed(master_seed)
    for part in path:
        if not isinstance(part, int) or part < 0:
            raise ValueError(f"substream path parts must be nonnegative ints, got {part!r}")
    return np.random.default_rng(np.random.SeedSequence([master_seed, *path]))
