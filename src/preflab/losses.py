"""Preference losses as differentiable scalar graphs over token log-ratios.

Every loss consumes per-token log-ratios log(pi_theta / pi_ref), not
policies, so reference log-probabilities can be precomputed. All three
objectives are one formula, a sum over segments of

    -log sigmoid(beta * sum_{i in seg} w_i * logratio_i),

divided by the number of pairs, with w_i = +1 on the chosen side and -1
(cADPO: -(1 - s_j)) on the rejected side:

* dpo_loss: adpo_loss with one adaptive segment per side (m=1), which
  covers both whole sides (Corollary 1);
* adpo_loss: the segments of a composition-module segmentation, summed
  outside the log-sigmoid;
* cadpo_loss: adpo_loss with rejected-side weights -(1 - s_j).

Every loss takes one ``SegmentedPair`` per pair (dpo builds its m=1
segmentation; the trainer plans it once per dataset). One shared function
reads each pair's cached kept-segment ranks as segment ids and turns them
into a fixed five-node graph (a ``weighted_segment_sum`` over the whole
batch, then scale, log-sigmoid, sum and mean) whatever the batch size.
There is no length normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .composition import SegmentedPair, segment_pair
from .errors import ValidationError


@dataclass
class LossConfig:
    method: str = "dpo"
    family: str = "adaptive"
    k: int | None = None
    m: int | None = None
    beta: float = 1.0
    weighted: bool = False

    def validate(self) -> "LossConfig":
        if self.method not in ("dpo", "adpo"):
            raise ValidationError(f"loss.method must be dpo or adpo, got {self.method!r}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValidationError(f"loss.beta must be finite and positive, got {self.beta}")
        if self.method == "adpo":
            if self.family not in ("static", "adaptive"):
                raise ValidationError(
                    f"loss.family must be static or adaptive, got {self.family!r}"
                )
            if self.family == "static" and (self.k is None or self.k < 1):
                raise ValidationError("loss.k must be >= 1 for the static family")
            if self.family == "adaptive" and (self.m is None or self.m < 1):
                raise ValidationError("loss.m must be >= 1 for the adaptive family")
        return self

    def segment_param(self) -> int:
        return self.k if self.family == "static" else self.m


@dataclass
class PairLogRatios:
    """Token log-ratio vectors of one pair, beta-free, as graph nodes."""

    chosen: Node
    rejected: Node
    rejected_scores: np.ndarray | None = None


@dataclass
class LogRatioBatch:
    pairs: list[PairLogRatios]
    beta: float

    def validate(self) -> "LogRatioBatch":
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValidationError(f"beta must be finite and positive, got {self.beta}")
        return self


def _check_alignment(index: int, pair: PairLogRatios, seg: SegmentedPair) -> None:
    want_w = seg.w_bounds[-1][1]
    want_l = seg.l_bounds[-1][1]
    got_w = pair.chosen.value.shape[0]
    got_l = pair.rejected.value.shape[0]
    if got_w != want_w or got_l != want_l:
        raise ValidationError(
            f"pair {index}: segmentation expects lengths ({want_w}, {want_l}) "
            f"but log-ratio vectors have ({got_w}, {got_l})"
        )


def _rejected_weights(index: int, pair: PairLogRatios, scores) -> np.ndarray:
    """Per-position weights 1 - s_j on the rejected vector."""
    if scores is None:
        raise ValidationError(f"pair {index}: weighted loss requires rejected scores")
    scores = np.asarray(scores, dtype=np.float64)
    n_rejected = pair.rejected.value.shape[0]
    if scores.shape != (n_rejected,):
        raise ValidationError(
            f"pair {index}: got {scores.shape[0] if scores.ndim == 1 else scores.shape} "
            f"scores for {n_rejected} rejected tokens"
        )
    inside = (scores >= 0.0) & (scores <= 1.0)
    if not np.all(inside):
        raise ValidationError(f"pair {index}: score {scores[~inside][0]} outside [0, 1]")
    return 1.0 - scores


def _segment_loss(
    batch: LogRatioBatch, segmentation: list[SegmentedPair], l_weights=None
) -> Node:
    """Mean over pairs of sum over kept segments of -log sigmoid(beta * z).

    z is a segment's chosen sum minus its (weighted) rejected sum. Each
    pair's ids are its segmentation's cached kept-segment ranks, offset by
    the segments of the pairs before it; ``l_weights`` holds optional
    per-pair rejected-side weights (default 1).
    """
    batch.validate()
    if len(segmentation) != len(batch.pairs):
        raise ValidationError(
            f"{len(segmentation)} segmentations for {len(batch.pairs)} pairs"
        )
    nodes, ids, weights = [], [], []
    n_segments = 0
    for i, (pair, seg) in enumerate(zip(batch.pairs, segmentation)):
        _check_alignment(i, pair, seg)
        w_rank, l_rank = seg.kept_ranks
        nodes += [pair.chosen, pair.rejected]
        ids += [w_rank + n_segments, l_rank + n_segments]
        l_weight = np.ones(l_rank.size) if l_weights is None else l_weights[i]
        weights += [np.ones(w_rank.size), -l_weight]
        n_segments += len(seg.kept_segments)
    logits = ad.weighted_segment_sum(
        nodes, np.concatenate(ids), n_segments, np.concatenate(weights)
    )
    total = ad.sum(ad.log_sigmoid(ad.mul(logits, batch.beta)))
    return ad.mul(total, -1.0 / len(batch.pairs))


def dpo_loss(batch: LogRatioBatch) -> Node:
    """Mean over pairs of -log sigmoid(beta * (total_w - total_l)): adpo_loss
    with one adaptive segment per side (Corollary 1)."""
    return adpo_loss(
        batch,
        [
            segment_pair((p.chosen.value.shape[0], p.rejected.value.shape[0]), "adaptive", 1)
            for p in batch.pairs
        ],
    )


def adpo_loss(batch: LogRatioBatch, segmentation: list[SegmentedPair]) -> Node:
    """Mean over pairs of sum over kept segments of -log sigmoid(beta * (S_w(i) - S_l(i)))."""
    return _segment_loss(batch, segmentation)


def cadpo_loss(
    batch: LogRatioBatch,
    segmentation: list[SegmentedPair],
    rejected_scores: list | None = None,
) -> Node:
    """adpo_loss with rejected log-ratios scaled by 1 - s_j per token.

    Scores come from ``rejected_scores`` when given, otherwise from each
    pair's own ``rejected_scores`` field. The chosen side is unweighted.
    """
    if rejected_scores is not None and len(rejected_scores) != len(batch.pairs):
        raise ValidationError(
            f"{len(rejected_scores)} score vectors for {len(batch.pairs)} pairs"
        )
    weights = [
        _rejected_weights(
            i, pair, rejected_scores[i] if rejected_scores is not None else pair.rejected_scores
        )
        for i, pair in enumerate(batch.pairs)
    ]
    return _segment_loss(batch, segmentation, weights)


def implicit_rewards(batch: LogRatioBatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-position rewards beta * log-ratio.

    Returns one (chosen, rejected) array pair per batch pair; entries line
    up with the tokens of each side.
    """
    batch.validate()
    return [(batch.beta * p.chosen.value, batch.beta * p.rejected.value) for p in batch.pairs]


def batch_loss(
    batch: LogRatioBatch,
    segmentation: list[SegmentedPair],
    cfg: LossConfig,
) -> Node:
    """The configured loss over a planned segmentation (dpo: adaptive m=1)."""
    if cfg.weighted:
        return cadpo_loss(batch, segmentation)
    return adpo_loss(batch, segmentation)
