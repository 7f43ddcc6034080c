"""Strong-composition segmentation of paired responses, and the preference
losses over it: one value function, and its graph node for the train step.

A strong composition splits the positions 1..n of a sequence into ordered
contiguous segments. Two families are provided:

* static: fixed windows of ``k`` tokens at the same absolute positions on
  both sides of a pair, each clipped to its own side's length (windows
  past the end of the shorter side are empty there);
* adaptive: each side is split into exactly ``m`` near-equal segments of
  its own length (segments may be empty when the side is shorter than
  ``m``).

``check_rule`` is the one check of a (family, parameter) rule. A
``SegmentedPair`` records only what defines a pair's segmentation
(family, parameter and the two side lengths) and runs it, so every record
is valid. ``stacked_ranks`` is the definition in use: for every
position of a whole list of pairs it gives the rank of its segment among
its pair's kept segments (those non-empty on at least one side), the ids
the loss sums by, in closed form from the length arrays:

* static: position i is in window i // k, and no window is empty on both
  sides, so the window is the rank;
* adaptive: position i of a side of length n is in segment
  ((i + 1)·m − 1) // n. Segments empty on both sides exist only when the
  longer side is shorter than ``m``, and only those pairs are compacted.

k is clamped at the longer side and m at len_w·len_l; past those the
ranks no longer change, so no work or array is sized by k or m. The
segmentation functions are pure and safe to call from any thread.

Every loss consumes per-token log-ratios log(pi_theta / pi_ref), not
policies, so reference log-probabilities can be precomputed. All three
objectives are one formula, a sum over segments of

    -log sigmoid(beta * sum_{i in seg} w_i * logratio_i),

divided by the number of pairs, with w_i = +1 on the chosen side and -1
(cADPO: -(1 - s_j)) on the rejected side:

* dpo_loss: adpo_loss with one adaptive segment per side, ``DPO_SEGMENTS``,
  which covers both whole sides (Corollary 1); the trainer plans dpo with
  the same constant, through ``LossConfig.segment_rule``;
* adpo_loss: the segments of a strong-composition segmentation, summed
  outside the log-sigmoid;
* cadpo_loss(batch, segmentation, rejected_scores): adpo_loss with
  rejected-side weights -(1 - s_j).

Which segment each token feeds, and its weight, depend only on the data
and the config, never on the step. ``segment_layout`` turns one
``SegmentedPair`` per pair (and the scores, if weighted, each checked by
``data.check_scores``) into a ``SegmentLayout``: per position the
kept-segment rank (``stacked_ranks``; no pair's segment bounds are built)
and the weight, per side the length, per pair the kept-segment count. The
trainer builds it once per command and indexes it per batch.

``segment_loss(x, layout, beta)`` is the one loss value, on a plain
log-ratio vector and without a graph: it takes every segment's z in one
``np.bincount`` over the whole stack. Evaluation calls it directly. Each
loss above builds a layout and calls ``batch_loss(batch, layout)``, which
records ``segment_loss`` as one graph node whatever the batch size, with
the loss's closed-form gradient as its backward; only the train step
calls it. There is no length normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .data import check_scores
from .errors import ValidationError

METHODS = ("dpo", "adpo")
FAMILIES = ("static", "adaptive")
# Corollary 1: DPO is ADPO with one adaptive segment per side
DPO_SEGMENTS = ("adaptive", 1)


def check_rule(family: str, param: int | None) -> None:
    """Reject a family not in ``FAMILIES``, and a k or m that is None or below 1."""
    if family not in FAMILIES:
        raise ValidationError(f"unknown composition family {family!r}")
    if param is None or param < 1:
        what = "static window size" if family == "static" else "adaptive segment count"
        raise ValidationError(f"{what} must be >= 1, got {param}")


@dataclass(frozen=True)
class SegmentedPair:
    """Aligned segmentation of one preference pair, by what defines it.

    Segment i of the chosen side is compared against segment i of the
    rejected side; a segment may be empty on one side. ``stacked_ranks``
    gives every position's kept rank in closed form from these four fields.
    Construction checks the rule, then that both sides are non-empty.
    """

    family: str
    param: int
    len_w: int
    len_l: int

    def __post_init__(self):
        check_rule(self.family, self.param)
        if self.len_w < 1 or self.len_l < 1:
            raise ValidationError(
                f"both sides must be non-empty, got lengths ({self.len_w}, {self.len_l})"
            )


def segment_pair(lengths: tuple[int, int], family: str, param: int) -> SegmentedPair:
    """Segment a pair whose chosen and rejected responses have ``lengths`` tokens."""
    return SegmentedPair(family, param, *lengths)


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


def check_beta(beta: float, name: str = "beta") -> None:
    """Reject a beta that is not finite and positive; ``name`` leads the message."""
    if not (math.isfinite(beta) and beta > 0):
        raise ValidationError(f"{name} must be finite and positive, got {beta}")


@dataclass
class LossConfig:
    method: str = "dpo"
    family: str = "adaptive"
    k: int | None = None
    m: int | None = None
    beta: float = 1.0
    weighted: bool = False

    def validate(self) -> "LossConfig":
        if self.method not in METHODS:
            raise ValidationError(
                f"loss.method must be {' or '.join(METHODS)}, got {self.method!r}"
            )
        check_beta(self.beta, "loss.beta")
        if self.method == "adpo":
            # the key of the value that check_rule rejects first
            key = {"static": "k", "adaptive": "m"}.get(self.family, "family")
            try:
                check_rule(*self.segment_rule())
            except ValidationError as err:
                raise ValidationError(f"loss.{key}: {err}") from err
        return self

    def segment_rule(self) -> tuple[str, int]:
        """The (family, parameter) of ``segment_pair``; ``DPO_SEGMENTS`` for dpo."""
        if self.method == "dpo":
            return DPO_SEGMENTS
        return self.family, self.k if self.family == "static" else self.m


@dataclass
class PairLogRatios:
    """Token log-ratio vectors of one pair, beta-free, as graph nodes."""

    chosen: Node
    rejected: Node


@dataclass
class LogRatioBatch:
    pairs: list[PairLogRatios]
    beta: float


@dataclass(frozen=True)
class SegmentLayout:
    """Where each position of a stack of sides (chosen then rejected, pair by
    pair) enters the loss.

    Per position: ``ranks``, the rank of its segment among its pair's kept
    segments, and ``weights``, its w_i. Per side: ``lengths``. Per pair:
    ``kept``, the number of kept segments.
    """

    ranks: np.ndarray
    weights: np.ndarray
    lengths: np.ndarray
    kept: np.ndarray


def segment_layout(segmentation: list[SegmentedPair], rejected_scores=None) -> SegmentLayout:
    """The layout of one ``SegmentedPair`` per pair: weights +1 on the chosen
    side and, on the rejected side, -(1 - s_j) from ``rejected_scores`` (one
    vector per pair, each in [0, 1]) or -1 without them.
    """
    if not segmentation:
        raise ValidationError("no pairs to segment")
    ranks, lengths = stacked_ranks(segmentation)
    # ranks never fall along a side, and no SegmentedPair has an empty side,
    # so each side's last rank is its largest
    last = ranks[np.cumsum(lengths) - 1]
    rejected = np.repeat(np.tile([False, True], len(segmentation)), lengths)
    weights = np.where(rejected, -1.0, 1.0)
    if rejected_scores is not None:
        if len(rejected_scores) != len(segmentation):
            raise ValidationError(
                f"{len(rejected_scores)} score vectors for {len(segmentation)} pairs"
            )
        parts = []
        for i, (scores, n_rejected) in enumerate(zip(rejected_scores, lengths[1::2])):
            if scores is None:
                raise ValidationError(f"pair {i}: weighted loss requires rejected scores")
            try:
                parts.append(check_scores(scores, n_rejected))
            except ValidationError as err:
                raise ValidationError(f"pair {i}: {err}") from err
        weights[rejected] = -(1.0 - np.concatenate(parts))
    return SegmentLayout(ranks, weights, lengths, np.maximum(last[0::2], last[1::2]) + 1)


def segment_loss(x: np.ndarray, layout: SegmentLayout, beta: float):
    """Mean over pairs of sum over kept segments of -log sigmoid(beta * z),
    on the plain log-ratio vector ``x`` of a stack of sides laid out by
    ``layout``; no graph.

    z is a segment's weighted sum over both sides, accumulated in position
    order (``np.bincount``). A position's segment id is its rank, offset by
    the kept segments of the pairs before it. Returns the loss value, beta
    times every segment's z, and every position's segment id: what the
    gradient reads.
    """
    check_beta(beta)
    for per_position in (layout.ranks, layout.weights):
        if per_position.shape != x.shape:
            raise ad.ShapeMismatchError("batch_loss", x.shape, per_position.shape)
    before = np.cumsum(layout.kept) - layout.kept
    ids = layout.ranks + np.repeat(before, layout.lengths[0::2] + layout.lengths[1::2])
    n_segments = int(layout.kept.sum())
    ad.check_bounds("batch_loss", ids, n_segments)
    beta_z = np.bincount(ids, weights=layout.weights * x, minlength=n_segments) * beta
    value = np.sum(ad.log_sigmoid_values(beta_z)) * (-1.0 / len(layout.kept))
    return value, beta_z, ids


def batch_loss(batch: LogRatioBatch, layout: SegmentLayout) -> Node:
    """``segment_loss`` over the batch's sides, as one graph node whose
    backward adds into those sides.

    The backward is the closed form dL/dz = -(beta / B) * sigmoid(-beta * z),
    times w_i at position i.
    """
    sides = [side for pair in batch.pairs for side in (pair.chosen, pair.rejected)]
    got = np.fromiter((side.value.shape[0] for side in sides), dtype=np.intp, count=len(sides))
    if got.shape != layout.lengths.shape:
        raise ValidationError(f"{len(layout.kept)} segmented pairs for {len(batch.pairs)} pairs")
    misaligned = np.flatnonzero(got != layout.lengths)
    if misaligned.size:
        i = int(misaligned[0]) // 2
        want, have = (tuple(n[2 * i : 2 * i + 2].tolist()) for n in (layout.lengths, got))
        raise ValidationError(
            f"pair {i}: segmentation expects lengths {want} but log-ratio vectors have {have}"
        )
    x = np.concatenate([side.value for side in sides])
    value, beta_z, ids = segment_loss(x, layout, batch.beta)
    scale = -1.0 / len(batch.pairs)
    stops = np.cumsum(got)

    def backward(g):
        grad = (((g * scale) * ad.sigmoid_values(-beta_z)) * batch.beta)[ids] * layout.weights
        for side, stop, n in zip(sides, stops, got):
            side.grad += grad[stop - n : stop]

    return Node(ad.graph_of("batch_loss", *sides), value, backward)


def dpo_loss(batch: LogRatioBatch) -> Node:
    """Mean over pairs of -log sigmoid(beta * (total_w - total_l)): adpo_loss
    with one adaptive segment per side (Corollary 1)."""
    sides = [(p.chosen.value.shape[0], p.rejected.value.shape[0]) for p in batch.pairs]
    return adpo_loss(batch, [segment_pair(n, *DPO_SEGMENTS) for n in sides])


def adpo_loss(batch: LogRatioBatch, segmentation: list[SegmentedPair]) -> Node:
    """Mean over pairs of sum over kept segments of -log sigmoid(beta * (S_w(i) - S_l(i)))."""
    return batch_loss(batch, segment_layout(segmentation))


def cadpo_loss(
    batch: LogRatioBatch, segmentation: list[SegmentedPair], rejected_scores: list
) -> Node:
    """adpo_loss with rejected log-ratios scaled by 1 - s_j per token, from
    one score vector per pair. The chosen side is unweighted."""
    if rejected_scores is None:
        raise ValidationError("cadpo_loss requires rejected scores")
    return batch_loss(batch, segment_layout(segmentation, rejected_scores))

