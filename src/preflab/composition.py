"""Strong-composition segmentation of paired responses.

A strong composition splits the positions 1..n of a sequence into ordered
contiguous segments. Two families are provided:

* static: fixed windows of ``k`` tokens at the same absolute positions on
  both sides of a pair, each clipped to its own side's length (windows
  past the end of the shorter side are empty there);
* adaptive: each side is split into exactly ``m`` near-equal segments of
  its own length (segments may be empty when the side is shorter than
  ``m``).

A ``SegmentedPair`` records only what defines a pair's segmentation
(family, parameter and the two side lengths). ``stacked_ranks`` is the
definition in use: for every position of a whole list of pairs it gives
the rank of its segment among its pair's kept segments (those non-empty
on at least one side), the ids the loss sums by, in closed form from the
length arrays:

* static: position i is in window i // k, and no window is empty on both
  sides, so the window is the rank;
* adaptive: position i of a side of length n is in segment
  ((i + 1)·m − 1) // n. Segments empty on both sides exist only when the
  longer side is shorter than ``m``, and only those pairs are compacted.

k is clamped at the longer side and m at len_w·len_l; past those the
ranks no longer change, so no work or array is sized by k or m.
Pure functions throughout; safe to call from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

FAMILIES = ("static", "adaptive")


@dataclass(frozen=True)
class SegmentedPair:
    """Aligned segmentation of one preference pair, by what defines it.

    Segment i of the chosen side is compared against segment i of the
    rejected side; a segment may be empty on one side. ``stacked_ranks``
    gives every position's kept rank in closed form from these four fields.
    """

    family: str
    param: int
    len_w: int
    len_l: int


def segment_pair(lengths: tuple[int, int], family: str, param: int) -> SegmentedPair:
    """Segment both sides of a pair by one composition family.

    ``lengths`` are the token counts of the chosen and rejected responses.
    Checks the parameter and that both sides are non-empty, in O(1).
    """
    len_w, len_l = lengths
    if family not in FAMILIES:
        raise ValidationError(f"unknown composition family {family!r}")
    if family == "static" and param < 1:
        raise ValidationError(f"static window size must be >= 1, got {param}")
    if len_w < 1 or len_l < 1:
        raise ValidationError(
            f"both sides must be non-empty, got lengths ({len_w}, {len_l})"
        )
    if family == "adaptive" and param < 1:
        raise ValidationError(f"adaptive segment count must be >= 1, got {param}")
    return SegmentedPair(family, param, len_w, len_l)


def stacked_ranks(segmentation: list[SegmentedPair]) -> tuple[np.ndarray, np.ndarray]:
    """Kept-segment rank of every position of the stacked sides (chosen then
    rejected, pair by pair), and the side lengths, in one pass over the
    length arrays. Pairs may mix families and parameters.
    """
    n = len(segmentation)
    static = np.fromiter((s.family == "static" for s in segmentation), dtype=bool, count=n)
    lengths = np.fromiter(
        (side for s in segmentation for side in (s.len_w, s.len_l)), dtype=np.intp, count=2 * n
    )
    len_w, len_l = lengths[0::2], lengths[1::2]
    longer = np.maximum(len_w, len_l)
    # past these caps the ranks do not change; clamped before int64 arithmetic
    cap = np.where(static, longer, len_w * len_l).tolist()
    param = np.fromiter(
        (min(s.param, c) for s, c in zip(segmentation, cap)), dtype=np.intp, count=n
    )
    if int(longer.max()) * int(param.max()) > np.iinfo(np.int64).max:  # (i + 1)·m below
        raise ValidationError(
            f"segment ids of sides up to {int(longer.max())} tokens overflow int64"
        )
    starts = np.cumsum(lengths) - lengths
    position = np.arange(int(lengths.sum())) - np.repeat(starts, lengths)
    side_param = np.repeat(np.repeat(param, 2), lengths)
    ranks = np.where(
        np.repeat(np.repeat(static, 2), lengths),
        position // side_param,
        ((position + 1) * side_param - 1) // np.repeat(lengths, lengths),
    )
    compact = ~static & (longer < param)
    if compact.any():
        # dense rank of the segment ids within each compacted pair
        pair_len = len_w + len_l
        at = np.flatnonzero(np.repeat(compact, pair_len))
        pair = np.repeat(np.arange(n), pair_len)[at]
        order = np.lexsort((ranks[at], pair))
        at, pair, seg = at[order], pair[order], ranks[at][order]
        first = np.ones(at.size, dtype=bool)
        first[1:] = pair[1:] != pair[:-1]
        dense = np.cumsum(first | np.r_[True, seg[1:] != seg[:-1]]) - 1
        ranks[at] = dense - np.maximum.accumulate(np.where(first, dense, 0))
    return ranks, lengths


def pad_tokens(tokens, length: int, pad_id: int) -> tuple[int, ...]:
    """Right-pad a token sequence to ``length`` with the PAD id."""
    tokens = tuple(tokens)
    if len(tokens) > length:
        raise ValidationError(f"sequence of length {len(tokens)} longer than {length}")
    return tokens + (pad_id,) * (length - len(tokens))
