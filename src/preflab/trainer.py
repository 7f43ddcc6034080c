"""Deterministic training loop and diagnostics.

The trainer freezes a reference copy of the initial policy and plans the
dataset once (``plan_dataset``): every side of every pair is stacked,
chosen then rejected, with its context rows, targets, the reference's
log-probs (forwarded once; they never change), the side offsets and the
segment layout of the loss (dpo as adaptive m=1). A train step indexes its
pairs' positions in that stack and in the layout and forwards them on its
graph; evaluation and the profile score the whole stack untracked, block
by block (``lm.row_logprobs``), and the profile plans no layout.
All reductions happen in fixed order, so identical (dataset, config, seed)
produce bit-identical logs and checkpoints.

Diagnostics cover the usual training curves (chosen/rejected sequence
log-probabilities, pairwise margin and accuracy) plus a prefix-position
profile of the per-token implicit rewards across checkpoints, binned for
every token at once.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
# unused pad_tokens kept: the benchmark's traced run wraps trainer.pad_tokens
from .composition import pad_tokens, segment_pair  # noqa: F401
from .data import PreferencePair
from .errors import TrainingDivergedError, ValidationError
from .lm import Policy, clone_frozen, row_logprobs
from .losses import (
    LogRatioBatch,
    LossConfig,
    PairLogRatios,
    SegmentLayout,
    batch_loss,
    segment_layout,
)
from .seeds import child_rng

@dataclass
class TrainConfig:
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: str = "adam"
    lr: float = 1e-2
    steps: int = 2000
    batch_size: int = 32
    seed: int = 0
    eval_every: int = 50
    checkpoint_every: int = 500

    def validate(self) -> "TrainConfig":
        self.loss.validate()
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(
                f"optimizer must be {' or '.join(OPTIMIZERS)}, got {self.optimizer!r}"
            )
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValidationError(f"lr must be finite and >= 0, got {self.lr}")
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.eval_every < 1:
            raise ValidationError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.checkpoint_every < 0:
            raise ValidationError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        return self


@dataclass
class TrainLogRow:
    step: int
    loss: float
    chosen_logp: float
    rejected_logp: float
    margin: float
    accuracy: float


@dataclass
class ProfileRow:
    checkpoint: int
    bin_lo: float
    bin_hi: float
    variance: float
    margin: float


@dataclass
class TrainResult:
    policy: Policy
    log: list[TrainLogRow]
    checkpoints: list[tuple[int, Policy]]


def to_csv(cls, rows: list) -> str:
    """CSV text of dataclass rows: a header of ``cls``'s field names, then one
    line per row (``str`` of a float is its shortest round-trip repr)."""
    names = [f.name for f in fields(cls)]
    lines = [",".join(names)]
    lines += [",".join(str(getattr(r, name)) for name in names) for r in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


class SgdOptimizer:
    def __init__(self, lr: float):
        self.lr = lr

    def update(self, params: dict, grads: dict) -> None:
        for name, p in params.items():
            p -= self.lr * grads[name]


class AdamOptimizer:
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def update(self, params: dict, grads: dict) -> None:
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / (1 - self.beta1**self.t)
            v_hat = self.v[name] / (1 - self.beta2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


OPTIMIZERS = {"sgd": SgdOptimizer, "adam": AdamOptimizer}


# ---------------------------------------------------------------------------
# the dataset plan
# ---------------------------------------------------------------------------


def _describe(policy: Policy) -> str:
    hyper = ", ".join(f"{k}={v}" for k, v in sorted(policy.hyper.items()))
    return f"{policy.kind} model (vocab {policy.vocab.size}, {hyper})"


@dataclass
class DatasetPlan:
    """Every side of every pair stacked once: chosen then rejected, pair by pair.

    Side s covers positions [offsets[s], offsets[s + 1]) of ``rows``,
    ``targets`` and ``ref_logp`` (the frozen reference's log-probs) and of
    the loss's ``layout`` (None when no loss was planned), so pair j's sides
    are 2j and 2j + 1. The rows are the reference's, so the plan serves only
    policies of the reference's kind, vocab and hyperparameters.
    """

    reference: Policy
    rows: np.ndarray
    targets: np.ndarray
    ref_logp: np.ndarray
    offsets: np.ndarray
    layout: SegmentLayout | None

    def log_ratios(self, policy: Policy, graph: ad.Graph, leaves=None, pair_ids=None,
                   what="the policy"):
        """Policy forward and log-ratio nodes over the positions of ``pair_ids``
        (default: the whole stack, as it is), with their segment layout.

        With ``leaves`` given, the policy side is tracked for gradients;
        otherwise it is scored untracked, block by block, by the module
        function ``lm.row_logprobs`` and enters ``graph`` as a leaf.
        """
        ref = self.reference
        if (policy.kind, policy.vocab, policy.hyper) != (ref.kind, ref.vocab, ref.hyper):
            raise ValidationError(
                f"{what} is a {_describe(policy)} but the reference is a {_describe(ref)}"
            )
        rows, targets, ref_logp, layout = self.rows, self.targets, self.ref_logp, self.layout
        if pair_ids is not None:
            sides = (2 * np.asarray(pair_ids)[:, None] + (0, 1)).ravel()
            lengths = layout.lengths[sides]
            offsets = np.concatenate(([0], np.cumsum(lengths)))
            index = np.arange(offsets[-1]) + np.repeat(self.offsets[sides] - offsets[:-1], lengths)
            rows, targets, ref_logp = rows[index], targets[index], ref_logp[index]
            layout = SegmentLayout(
                layout.ranks[index], layout.weights[index], lengths, layout.kept[pair_ids]
            )
        if leaves is None:
            # the module function: a bound policy.row_logprobs call is what
            # perfbench's traced run counts as a reference forward
            theta = graph.leaf(row_logprobs(policy, rows, targets))
        else:
            theta = policy.rows_forward(graph, leaves, rows, targets)
        return theta, ad.sub(theta, ref_logp), layout


def plan_dataset(
    dataset: list[PreferencePair], cfg: LossConfig | None, ref: Policy
) -> DatasetPlan:
    """Stack the dataset once and forward the frozen reference over it.

    The context rows of every side come from one ``stacked_rows`` call
    (``lm.side_windows``). Each pair is segmented by the configured family;
    dpo is planned as its one-segment case, the adaptive family with m=1.
    A weighted loss lays out every pair's rejected scores, which must exist.
    Without a ``cfg`` no loss layout is planned: the plan then serves only
    whole-stack scoring, as the reward profile needs.
    """
    if not dataset:
        raise ValidationError("dataset is empty")
    responses = [side for p in dataset for side in (p.chosen, p.rejected)]
    prompts = [p.prompt for p in dataset for _ in (p.chosen, p.rejected)]
    rows, targets = ref.stacked_rows(prompts, responses)
    layout = None
    if cfg is not None:
        adpo = cfg.method == "adpo"
        family, param = (cfg.family, cfg.segment_param()) if adpo else ("adaptive", 1)
        layout = segment_layout(
            [segment_pair((len(p.chosen), len(p.rejected)), family, param) for p in dataset],
            [p.rejected_scores for p in dataset] if cfg.weighted else None,
        )
    return DatasetPlan(
        reference=ref,
        rows=rows,
        targets=targets,
        ref_logp=ref.row_logprobs(rows, targets),
        offsets=np.concatenate(([0], np.cumsum([len(side) for side in responses]))),
        layout=layout,
    )


def _build_batch(plan: DatasetPlan, policy: Policy, beta: float, graph: ad.Graph,
                 leaves=None, pair_ids=None):
    """Forward the pairs once and slice per-pair log-ratio vectors."""
    theta, log_ratios, layout = plan.log_ratios(policy, graph, leaves, pair_ids)
    offsets = np.concatenate(([0], np.cumsum(layout.lengths)))
    pairs = [
        PairLogRatios(
            chosen=ad.slice1d(log_ratios, offsets[2 * k], offsets[2 * k + 1]),
            rejected=ad.slice1d(log_ratios, offsets[2 * k + 1], offsets[2 * k + 2]),
        )
        for k in range(len(layout.kept))
    ]
    return LogRatioBatch(pairs=pairs, beta=beta), layout, theta, offsets


def eval_pairs(
    policy: Policy,
    ref: Policy,
    dataset: list[PreferencePair],
    loss_cfg: LossConfig,
    step: int = 0,
    plan: DatasetPlan | None = None,
) -> TrainLogRow:
    """One diagnostics row over the full dataset; mutates nothing.

    ``plan`` (from ``plan_dataset`` with the same config and reference)
    skips re-planning and re-forwarding the reference. A policy of another
    kind, vocab or shape than the reference raises ValidationError.
    """
    loss_cfg.validate()
    if plan is None:
        plan = plan_dataset(dataset, loss_cfg, ref)
    graph = ad.Graph()
    batch, layout, theta, offsets = _build_batch(plan, policy, loss_cfg.beta, graph)
    loss = float(batch_loss(batch, layout).value)
    side_logp = [float(np.sum(theta.value[a:b])) for a, b in zip(offsets[:-1], offsets[1:])]
    margins = [
        batch.beta * (float(np.sum(p.chosen.value)) - float(np.sum(p.rejected.value)))
        for p in batch.pairs
    ]
    hits = [1.0 if m > 0 else (0.5 if m == 0 else 0.0) for m in margins]
    n = len(batch.pairs)
    return TrainLogRow(
        step=step,
        loss=loss,
        chosen_logp=float(np.sum(side_logp[0::2]) / n),
        rejected_logp=float(np.sum(side_logp[1::2]) / n),
        margin=float(np.sum(margins) / n),
        accuracy=float(np.sum(hits) / n),
    )


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def train(dataset: list[PreferencePair], policy: Policy, cfg: TrainConfig) -> TrainResult:
    """Optimize the policy against its frozen initial copy.

    Logs a diagnostics row at step 0 and every ``eval_every`` updates;
    snapshots checkpoints every ``checkpoint_every`` updates (0 disables
    intermediate snapshots) plus always at the final step.
    """
    cfg.validate()
    if getattr(policy, "frozen", False):
        raise ValidationError("cannot train a frozen policy")

    ref = clone_frozen(policy)
    plan = plan_dataset(dataset, cfg.loss, ref)
    optimizer = OPTIMIZERS[cfg.optimizer](cfg.lr)
    rng = child_rng(cfg.seed, "shuffle")

    log = [eval_pairs(policy, ref, dataset, cfg.loss, step=0, plan=plan)]
    checkpoints: list[tuple[int, Policy]] = []

    order = np.empty(0, dtype=np.intp)
    for step in range(1, cfg.steps + 1):
        if not order.size:
            order = rng.permutation(len(dataset))
        batch_ids, order = order[: cfg.batch_size], order[cfg.batch_size :]

        graph = ad.Graph()
        leaves = {name: graph.leaf(value) for name, value in policy.params.items()}
        batch, layout, _, _ = _build_batch(plan, policy, cfg.loss.beta, graph, leaves, batch_ids)
        loss = batch_loss(batch, layout)
        if not np.isfinite(loss.value):
            raise TrainingDivergedError(step, batch_ids.tolist())
        graph.backward(loss)
        grads = {name: leaves[name].grad for name in policy.params}
        optimizer.update(policy.params, grads)

        if step % cfg.eval_every == 0 or step == cfg.steps:
            log.append(eval_pairs(policy, ref, dataset, cfg.loss, step=step, plan=plan))
        at_interval = cfg.checkpoint_every > 0 and step % cfg.checkpoint_every == 0
        if at_interval or step == cfg.steps:
            checkpoints.append((step, copy.deepcopy(policy)))

    return TrainResult(policy=policy, log=log, checkpoints=checkpoints)


# ---------------------------------------------------------------------------
# prefix-position reward profile
# ---------------------------------------------------------------------------


def prefix_reward_profile(
    checkpoints: list[tuple[int, Policy]],
    ref: Policy,
    dataset: list[PreferencePair],
    beta: float,
    bins: int = 20,
) -> list[ProfileRow]:
    """Bin per-token implicit rewards by normalized response position.

    Position i (1-based) of a response of length n maps to i/n in (0, 1].
    Per bin: the population variance of all rewards (both sides) landing
    there, and the margin (chosen-minus-rejected reward sum, averaged over
    pairs). Bins nothing landed in are omitted entirely, and never
    allocated: time and memory grow with the tokens, not with ``bins``.
    """
    if not checkpoints:
        raise ValidationError("at least one checkpoint is required")
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    if not (math.isfinite(beta) and beta > 0):
        raise ValidationError(f"beta must be finite and positive, got {beta}")
    plan = plan_dataset(dataset, None, ref)
    lengths = np.diff(plan.offsets)
    if int(lengths.max()) * bins > np.iinfo(np.int64).max:
        raise ValidationError(f"bins {bins} times the longest response overflows int64")
    # normalized position i/n of every stacked token; exact integer floor
    position = np.arange(1, plan.offsets[-1] + 1) - np.repeat(plan.offsets[:-1], lengths)
    bin_of = np.minimum(position * bins // np.repeat(lengths, lengths), bins - 1)
    occupied, slot, counts = np.unique(bin_of, return_inverse=True, return_counts=True)
    sign = np.repeat(np.tile([1.0, -1.0], len(dataset)), lengths)
    by_bin = np.argsort(slot, kind="stable")
    rows: list[ProfileRow] = []
    for step, policy in checkpoints:
        _, log_ratios, _ = plan.log_ratios(policy, ad.Graph(), what=f"checkpoint {step}")
        rewards = beta * log_ratios.value
        # np.bincount adds in stack order, as a per-token loop over the pairs would
        margin = np.bincount(slot, weights=sign * rewards)
        groups = np.split(rewards[by_bin], np.cumsum(counts)[:-1])
        for b, values, total in zip(occupied.tolist(), groups, margin):
            variance, margin_per_pair = float(np.var(values)), float(total / len(dataset))
            rows.append(ProfileRow(step, b / bins, (b + 1) / bins, variance, margin_per_pair))
    return rows
