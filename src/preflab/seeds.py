"""Named child streams derived from one root seed.

Every source of randomness in a run pulls from its own named stream so
components stay reproducible independently of each other.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

STREAMS = {
    "task": 0,    # per-task constants (background token bias)
    "data": 1,    # dataset sampling and labeling
    "init": 2,    # model parameter initialization
    "shuffle": 3, # training minibatch order
    "scores_pos": 4,  # auxiliary policy for token scores (positive side)
    "scores_neg": 5,  # auxiliary policy for token scores (negative side)
}


def seed_sequence(seed: int, key: int) -> np.random.SeedSequence:
    """Child ``key`` of the root ``seed``; a negative seed is refused."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(seed, spawn_key=(key,))


def child_rng(seed: int, stream: str) -> np.random.Generator:
    if stream not in STREAMS:
        raise ValidationError(f"unknown seed stream {stream!r}")
    return np.random.default_rng(seed_sequence(seed, STREAMS[stream]))
