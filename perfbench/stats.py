"""Summary statistics for benchmark samples."""

from __future__ import annotations

import math

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest ladder percentile that leaves at
    least ten samples beyond it, or None when there are too few samples
    for any percentile at or above the median to qualify. Percentiles
    are nearest-rank: p is the value at 1-based rank ceil(p/100 * n)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return None
