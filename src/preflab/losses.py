"""Preference losses as differentiable scalar graphs over token log-ratios.

Every loss consumes per-token log-ratios log(pi_theta / pi_ref), not
policies, so reference log-probabilities can be precomputed. All three
objectives are one formula, a sum over segments of

    -log sigmoid(beta * sum_{i in seg} w_i * logratio_i),

divided by the number of pairs, with w_i = +1 on the chosen side and -1
(cADPO: -(1 - s_j)) on the rejected side:

* dpo_loss: one segment per pair covering both whole sides;
* adpo_loss: the segments of a composition-module segmentation, summed
  outside the log-sigmoid;
* cadpo_loss: adpo_loss with rejected-side weights -(1 - s_j).

Each wrapper only lays out segment ids and weights; one shared function
turns them into a fixed five-node graph (a ``weighted_segment_sum`` over
the whole batch, then scale, log-sigmoid, sum and mean) whatever the
batch size. There is no length normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .composition import SegmentedPair
from .errors import ValidationError


@dataclass
class LossConfig:
    method: str = "dpo"
    family: str = "adaptive"
    k: int | None = None
    m: int | None = None
    beta: float = 1.0
    weighted: bool = False
    mask_padding: bool = True

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
    """Token log-ratio vectors of one pair, beta-free, as graph nodes.

    Masks are True at real tokens; for the static family the vectors cover
    the padded grid and the mask marks the padding tail.
    """

    chosen: Node
    rejected: Node
    chosen_mask: np.ndarray
    rejected_mask: np.ndarray
    rejected_scores: np.ndarray | None = None


@dataclass
class LogRatioBatch:
    pairs: list[PairLogRatios]
    beta: float

    def validate(self) -> "LogRatioBatch":
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValidationError(f"beta must be finite and positive, got {self.beta}")
        for i, pair in enumerate(self.pairs):
            if pair.chosen.value.shape != pair.chosen_mask.shape:
                raise ValidationError(
                    f"pair {i}: chosen mask shape {pair.chosen_mask.shape} "
                    f"!= log-ratio shape {pair.chosen.value.shape}"
                )
            if pair.rejected.value.shape != pair.rejected_mask.shape:
                raise ValidationError(
                    f"pair {i}: rejected mask shape {pair.rejected_mask.shape} "
                    f"!= log-ratio shape {pair.rejected.value.shape}"
                )
        return self


def _check_alignment(index: int, pair: PairLogRatios, seg: SegmentedPair) -> None:
    want_w = seg.w_mask.shape[0]
    want_l = seg.l_mask.shape[0]
    got_w = pair.chosen.value.shape[0]
    got_l = pair.rejected.value.shape[0]
    if got_w != want_w or got_l != want_l:
        raise ValidationError(
            f"pair {index}: segmentation expects lengths ({want_w}, {want_l}) "
            f"but log-ratio vectors have ({got_w}, {got_l})"
        )


def _rejected_weights(index: int, pair: PairLogRatios, scores) -> np.ndarray:
    """Per-position weights 1 - s_j on the rejected vector (padding kept at 1)."""
    if scores is None:
        raise ValidationError(f"pair {index}: weighted loss requires rejected scores")
    scores = np.asarray(scores, dtype=np.float64)
    true_len = int(np.sum(pair.rejected_mask))
    if scores.shape != (true_len,):
        raise ValidationError(
            f"pair {index}: got {scores.shape[0] if scores.ndim == 1 else scores.shape} "
            f"scores for {true_len} rejected tokens"
        )
    inside = (scores >= 0.0) & (scores <= 1.0)
    if not np.all(inside):
        raise ValidationError(f"pair {index}: score {scores[~inside][0]} outside [0, 1]")
    weights = np.ones(pair.rejected.value.shape[0])
    weights[:true_len] = 1.0 - scores
    return weights


def _side_ids(bounds, rank: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Batch segment id of every position of one side (-1 = dropped).

    ``bounds`` tile the side's vector; ``rank`` maps each of its segments
    to a batch segment id, or -1 for segments that are not kept.
    """
    sizes = [stop - start for start, stop in bounds]
    ids = rank[np.repeat(np.arange(len(bounds)), sizes)]
    return ids if mask is None else np.where(mask, ids, -1)


def _segment_loss(batch: LogRatioBatch, layouts, mask_padding: bool, l_weights=None) -> Node:
    """Mean over pairs of sum over kept segments of -log sigmoid(beta * z).

    z is a segment's chosen sum minus its (weighted) rejected sum. ``layouts``
    holds one (w_bounds, l_bounds, kept) triple per pair; ``l_weights`` holds
    optional per-pair rejected-side weights (default 1).
    """
    nodes, ids, weights = [], [], []
    n_segments = 0
    for i, (pair, (w_bounds, l_bounds, kept)) in enumerate(zip(batch.pairs, layouts)):
        rank = np.full(len(w_bounds), -1, dtype=np.intp)
        rank[list(kept)] = n_segments + np.arange(len(kept))
        n_segments += len(kept)
        l_weight = np.ones(pair.rejected.value.shape[0]) if l_weights is None else l_weights[i]
        nodes += [pair.chosen, pair.rejected]
        ids += [
            _side_ids(w_bounds, rank, pair.chosen_mask if mask_padding else None),
            _side_ids(l_bounds, rank, pair.rejected_mask if mask_padding else None),
        ]
        weights += [np.ones(pair.chosen.value.shape[0]), -l_weight]
    logits = ad.weighted_segment_sum(
        nodes, np.concatenate(ids), n_segments, np.concatenate(weights)
    )
    total = ad.sum(ad.log_sigmoid(ad.mul(logits, batch.beta)))
    return ad.mul(total, -1.0 / len(batch.pairs))


def _adpo_layouts(batch: LogRatioBatch, segmentation: list[SegmentedPair], mask_padding: bool):
    if len(segmentation) != len(batch.pairs):
        raise ValidationError(
            f"{len(segmentation)} segmentations for {len(batch.pairs)} pairs"
        )
    layouts = []
    for i, (pair, seg) in enumerate(zip(batch.pairs, segmentation)):
        _check_alignment(i, pair, seg)
        layouts.append((seg.w_bounds, seg.l_bounds, seg.kept_segments(mask_padding)))
    return layouts


def dpo_loss(batch: LogRatioBatch, mask_padding: bool = True) -> Node:
    """Mean over pairs of -log sigmoid(beta * (total_w - total_l))."""
    batch.validate()
    layouts = [
        (((0, p.chosen.value.shape[0]),), ((0, p.rejected.value.shape[0]),), (0,))
        for p in batch.pairs
    ]
    return _segment_loss(batch, layouts, mask_padding)


def adpo_loss(
    batch: LogRatioBatch, segmentation: list[SegmentedPair], mask_padding: bool = True
) -> Node:
    """Mean over pairs of sum over kept segments of -log sigmoid(beta * (S_w(i) - S_l(i)))."""
    batch.validate()
    return _segment_loss(batch, _adpo_layouts(batch, segmentation, mask_padding), mask_padding)


def cadpo_loss(
    batch: LogRatioBatch,
    segmentation: list[SegmentedPair],
    rejected_scores: list | None = None,
    mask_padding: bool = True,
) -> Node:
    """adpo_loss with rejected log-ratios scaled by 1 - s_j per token.

    Scores come from ``rejected_scores`` when given, otherwise from each
    pair's own ``rejected_scores`` field. The chosen side is unweighted.
    """
    batch.validate()
    layouts = _adpo_layouts(batch, segmentation, mask_padding)
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
    return _segment_loss(batch, layouts, mask_padding, weights)


def implicit_rewards(batch: LogRatioBatch) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-position rewards beta * log-ratio, masked positions excluded.

    Returns one (chosen, rejected) array pair per batch pair; entries line
    up with the real (unpadded) tokens of each side.
    """
    batch.validate()
    out = []
    for pair in batch.pairs:
        chosen = batch.beta * pair.chosen.value[pair.chosen_mask]
        rejected = batch.beta * pair.rejected.value[pair.rejected_mask]
        out.append((chosen, rejected))
    return out


def batch_loss(
    batch: LogRatioBatch,
    segmentation: list[SegmentedPair] | None,
    cfg: LossConfig,
) -> Node:
    """Dispatch to the configured loss."""
    if cfg.weighted:
        if segmentation is None:
            raise ValidationError("weighted loss requires a segmentation")
        return cadpo_loss(batch, segmentation, mask_padding=cfg.mask_padding)
    if cfg.method == "dpo":
        return dpo_loss(batch, mask_padding=cfg.mask_padding)
    if segmentation is None:
        raise ValidationError("adpo loss requires a segmentation")
    return adpo_loss(batch, segmentation, mask_padding=cfg.mask_padding)
