"""Strong-composition segmentation of paired responses.

A strong composition splits the positions 1..n of a sequence into ordered
contiguous segments. Two families are provided:

* static: fixed windows of ``k`` tokens at the same absolute positions on
  both sides of a pair, each clipped to its own side's length (windows
  past the end of the shorter side are empty there);
* adaptive: each side is split into exactly ``m`` near-equal segments of
  its own length (segments may be empty when the side is shorter than
  ``m``).

A ``SegmentedPair`` caches, per side, the rank of every position's
segment among the kept (non-empty) segments: the ids the loss sums by.
Pure functions throughout; safe to call from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class StrongComposition:
    """Ordered segment sizes that sum to the decomposed length."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if self.parts and min(self.parts) < 0:
            raise ValidationError(f"negative segment size in {self.parts}")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def bounds(self) -> tuple[tuple[int, int], ...]:
        """Half-open [start, stop) ranges of each segment, 0-based."""
        stops = tuple(accumulate(self.parts))
        return tuple(zip((0,) + stops[:-1], stops))


def xi_static(
    len_w: int, len_l: int, k: int
) -> tuple[StrongComposition, StrongComposition]:
    """Fixed windows of ``k`` tokens at the same absolute positions on both sides.

    Window i covers positions [i*k, (i+1)*k), clipped to each side's own
    length; there are ceil(max(len_w, len_l) / k) windows, so the windows
    past the end of the shorter side are empty on that side.
    """
    if k < 1:
        raise ValidationError(f"static window size must be >= 1, got {k}")
    if len_w < 1 or len_l < 1:
        raise ValidationError(
            f"both sides must be non-empty, got lengths ({len_w}, {len_l})"
        )
    n_windows = -(-max(len_w, len_l) // k)

    def clipped(length: int) -> StrongComposition:
        full, rest = divmod(length, k)
        parts = (k,) * full + ((rest,) if rest else ())
        return StrongComposition(parts + (0,) * (n_windows - len(parts)))

    return clipped(len_w), clipped(len_l)


def xi_adaptive(length: int, m: int) -> StrongComposition:
    """Split ``length`` positions into exactly ``m`` near-uniform segments.

    Segment sizes are floor(i*length/m) - floor((i-1)*length/m), so each is
    either floor(length/m) or ceil(length/m); sizes may be 0 when
    length < m.
    """
    if m < 1:
        raise ValidationError(f"adaptive segment count must be >= 1, got {m}")
    if length < 0:
        raise ValidationError(f"length must be >= 0, got {length}")
    parts = tuple(length * (i + 1) // m - length * i // m for i in range(m))
    return StrongComposition(parts)


@dataclass(frozen=True)
class SegmentedPair:
    """Aligned segmentation of one preference pair.

    Segment i of the chosen side is compared against segment i of the
    rejected side. Each side's bounds tile that side's own token-logprob
    vector; a segment may be empty on one side.
    """

    family: str
    param: int
    n_segments: int
    w_bounds: tuple[tuple[int, int], ...]
    l_bounds: tuple[tuple[int, int], ...]

    @cached_property
    def kept_segments(self) -> tuple[int, ...]:
        """Indices of segments non-empty on at least one side.

        A segment empty on both sides would contribute a constant with zero
        gradient, so it is skipped.
        """
        return tuple(
            i
            for i, ((ws, we), (ls, le)) in enumerate(zip(self.w_bounds, self.l_bounds))
            if we > ws or le > ls
        )

    @cached_property
    def kept_ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """Rank among ``kept_segments`` of every position's segment, per side.

        Segments that are not kept are empty on both sides, so no position
        takes their rank.
        """
        w_sizes, l_sizes = (
            np.array([stop - start for start, stop in b], dtype=np.intp)
            for b in (self.w_bounds, self.l_bounds)
        )
        rank = np.cumsum(w_sizes + l_sizes > 0) - 1
        return np.repeat(rank, w_sizes), np.repeat(rank, l_sizes)


def segment_pair(lengths: tuple[int, int], family: str, param: int) -> SegmentedPair:
    """Segment both sides of a pair by one composition family.

    ``lengths`` are the token counts of the chosen and rejected responses.
    """
    len_w, len_l = lengths
    if family == "static":
        comp_w, comp_l = xi_static(len_w, len_l, param)
    elif family == "adaptive":
        if len_w < 1 or len_l < 1:
            raise ValidationError(
                f"both sides must be non-empty, got lengths ({len_w}, {len_l})"
            )
        comp_w, comp_l = xi_adaptive(len_w, param), xi_adaptive(len_l, param)
    else:
        raise ValidationError(f"unknown composition family {family!r}")
    return SegmentedPair(family, param, len(comp_w.parts), comp_w.bounds(), comp_l.bounds())


def pad_tokens(tokens, length: int, pad_id: int) -> tuple[int, ...]:
    """Right-pad a token sequence to ``length`` with the PAD id."""
    tokens = tuple(tokens)
    if len(tokens) > length:
        raise ValidationError(f"sequence of length {len(tokens)} longer than {length}")
    return tokens + (pad_id,) * (length - len(tokens))
