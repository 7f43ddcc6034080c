"""Deterministic training loop and diagnostics.

The trainer freezes a reference copy of the initial policy, forwards it
once over the whole dataset (its log-probabilities never change), then
runs seeded minibatch optimization of the configured preference loss. All
reductions happen in fixed order, so identical (dataset, config, seed)
produce bit-identical logs and checkpoints.

Diagnostics cover the usual training curves (chosen/rejected sequence
log-probabilities, pairwise margin and accuracy) plus a prefix-position
profile of the per-token implicit rewards across checkpoints.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
# unused pad_tokens kept: the benchmark's traced run wraps trainer.pad_tokens
from .composition import pad_tokens, segment_pair  # noqa: F401
from .data import PreferencePair
from .errors import TrainingDivergedError, ValidationError
from .lm import Policy, clone_frozen
from .losses import LogRatioBatch, LossConfig, PairLogRatios, batch_loss
from .seeds import child_rng

TRAINLOG_HEADER = "step,loss,chosen_logp,rejected_logp,margin,accuracy"
PROFILE_HEADER = "checkpoint,bin_lo,bin_hi,variance,margin"


@dataclass
class TrainConfig:
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: str = "adam"
    lr: float = 1e-2
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    steps: int = 2000
    batch_size: int = 32
    seed: int = 0
    eval_every: int = 50
    checkpoint_every: int = 500

    def validate(self) -> "TrainConfig":
        self.loss.validate()
        if self.optimizer not in ("sgd", "adam"):
            raise ValidationError(f"optimizer must be sgd or adam, got {self.optimizer!r}")
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


def trainlog_to_csv(rows: list[TrainLogRow]) -> str:
    lines = [TRAINLOG_HEADER]
    for r in rows:
        lines.append(
            f"{r.step},{r.loss!r},{r.chosen_logp!r},{r.rejected_logp!r},"
            f"{r.margin!r},{r.accuracy!r}"
        )
    return "\n".join(lines) + "\n"


def profile_to_csv(rows: list[ProfileRow]) -> str:
    lines = [PROFILE_HEADER]
    for r in rows:
        lines.append(f"{r.checkpoint},{r.bin_lo!r},{r.bin_hi!r},{r.variance!r},{r.margin!r}")
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
    def __init__(self, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return SgdOptimizer(cfg.lr)
    return AdamOptimizer(cfg.lr, cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)


# ---------------------------------------------------------------------------
# per-pair plans and batched forwards
# ---------------------------------------------------------------------------


@dataclass
class _PairPlan:
    index: int
    prompt: tuple
    w_tokens: tuple
    l_tokens: tuple
    seg: object  # SegmentedPair | None
    scores: np.ndarray | None
    ref_w: np.ndarray | None = None  # reference log-probs, chosen side
    ref_l: np.ndarray | None = None  # reference log-probs, rejected side
    _rows: dict = field(default_factory=dict)

    def side_rows(self, policy: Policy):
        """Context rows/targets per side; cached per policy geometry (the
        plan's tokens never change, so rows are static across steps)."""
        key = (policy.kind, policy.vocab.size) + tuple(
            sorted(policy.hyper.items())
        )
        if key not in self._rows:
            self._rows[key] = (
                policy.context_rows(self.prompt, self.w_tokens),
                policy.context_rows(self.prompt, self.l_tokens),
            )
        return self._rows[key]


def _plan_pair(index: int, pair: PreferencePair, cfg: LossConfig) -> _PairPlan:
    if cfg.method == "adpo" or cfg.weighted:
        family = "adaptive" if cfg.method == "dpo" else cfg.family
        param = 1 if cfg.method == "dpo" else cfg.segment_param()
        seg = segment_pair((len(pair.chosen), len(pair.rejected)), family, param)
    else:
        seg = None
    return _PairPlan(
        index=index,
        prompt=pair.prompt,
        w_tokens=pair.chosen,
        l_tokens=pair.rejected,
        seg=seg,
        scores=pair.rejected_scores,
    )


def plan_dataset(dataset: list[PreferencePair], cfg: LossConfig, ref: Policy):
    """Plan every pair and attach its reference log-probs.

    The frozen reference is forwarded once, over the stacked rows of the
    whole dataset; each plan keeps its two slices of the result.
    """
    plans = [_plan_pair(i, pair, cfg) for i, pair in enumerate(dataset)]
    rows, targets, spans = _stack_rows(ref, plans)
    ref_vals = ref.row_logprobs(rows, targets)
    for plan, ((ws, we), (ls, le)) in zip(plans, spans):
        plan.ref_w, plan.ref_l = ref_vals[ws:we], ref_vals[ls:le]
    return plans


def _stack_rows(policy: Policy, plans: list[_PairPlan]):
    """One (rows, targets) stack covering every side of every plan, plus the
    [start, stop) span of each side within the stack."""
    rows_parts = []
    target_parts = []
    spans = []
    offset = 0
    for plan in plans:
        pair_spans = []
        for rows, targets in plan.side_rows(policy):
            rows_parts.append(rows)
            target_parts.append(targets)
            pair_spans.append((offset, offset + len(targets)))
            offset += len(targets)
        spans.append(tuple(pair_spans))
    rows = np.concatenate(rows_parts, axis=0)
    targets = np.concatenate(target_parts, axis=0)
    return rows, targets, spans


def _build_batch(
    policy: Policy,
    plans: list[_PairPlan],
    cfg: LossConfig,
    graph: ad.Graph,
    leaves: dict | None,
):
    """Forward the whole batch once and slice per-pair log-ratio vectors.

    With ``leaves`` given, the policy side is tracked for gradients;
    otherwise a fresh untracked forward is used (evaluation). Reference
    log-probs come precomputed from the plans.
    """
    rows, targets, spans = _stack_rows(policy, plans)
    if leaves is None:
        leaves = {name: graph.leaf(value) for name, value in policy.params.items()}
    theta = policy.rows_forward(graph, leaves, rows, targets)
    ref_stack = np.concatenate([v for plan in plans for v in (plan.ref_w, plan.ref_l)])
    log_ratios = ad.sub(theta, ref_stack)
    pairs = []
    segs = []
    for plan, ((ws, we), (ls, le)) in zip(plans, spans):
        pairs.append(
            PairLogRatios(
                chosen=ad.slice1d(log_ratios, ws, we),
                rejected=ad.slice1d(log_ratios, ls, le),
                rejected_scores=plan.scores,
            )
        )
        segs.append(plan.seg)
    batch = LogRatioBatch(pairs=pairs, beta=cfg.beta)
    segmentation = None if segs and segs[0] is None else segs
    return batch, segmentation, theta, spans


def _pair_metrics(batch: LogRatioBatch, theta_vals, spans):
    """Per-pair totals for the training curves."""
    chosen_logp = []
    rejected_logp = []
    margins = []
    for pair, ((ws, we), (ls, le)) in zip(batch.pairs, spans):
        chosen_logp.append(float(np.sum(theta_vals[ws:we])))
        rejected_logp.append(float(np.sum(theta_vals[ls:le])))
        total_w = float(np.sum(pair.chosen.value))
        total_l = float(np.sum(pair.rejected.value))
        margins.append(batch.beta * (total_w - total_l))
    return chosen_logp, rejected_logp, margins


def eval_pairs(
    policy: Policy,
    ref: Policy,
    dataset: list[PreferencePair],
    loss_cfg: LossConfig,
    step: int = 0,
    plans: list[_PairPlan] | None = None,
) -> TrainLogRow:
    """One diagnostics row over the full dataset; mutates nothing.

    ``plans`` (from ``plan_dataset`` with the same config and reference)
    skip re-planning and re-forwarding the reference.
    """
    loss_cfg.validate()
    if not dataset:
        raise ValidationError("dataset is empty")
    if plans is None:
        plans = plan_dataset(dataset, loss_cfg, ref)
    graph = ad.Graph()
    batch, segmentation, theta, spans = _build_batch(
        policy, plans, loss_cfg, graph, leaves=None
    )
    loss = float(batch_loss(batch, segmentation, loss_cfg).value)
    chosen_logp, rejected_logp, margins = _pair_metrics(batch, theta.value, spans)
    hits = [1.0 if m > 0 else (0.5 if m == 0 else 0.0) for m in margins]
    n = len(dataset)
    return TrainLogRow(
        step=step,
        loss=loss,
        chosen_logp=float(np.sum(chosen_logp) / n),
        rejected_logp=float(np.sum(rejected_logp) / n),
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
    if not dataset:
        raise ValidationError("dataset is empty")
    if getattr(policy, "frozen", False):
        raise ValidationError("cannot train a frozen policy")
    if cfg.loss.weighted and any(p.rejected_scores is None for p in dataset):
        raise ValidationError("weighted loss requires rejected_scores on every pair")

    ref = clone_frozen(policy)
    plans = plan_dataset(dataset, cfg.loss, ref)
    optimizer = make_optimizer(cfg)
    rng = child_rng(cfg.seed, "shuffle")

    log = [eval_pairs(policy, ref, dataset, cfg.loss, step=0, plans=plans)]
    checkpoints: list[tuple[int, Policy]] = []

    order: list[int] = []
    for step in range(1, cfg.steps + 1):
        if not order:
            order = list(rng.permutation(len(dataset)))
        take = min(cfg.batch_size, len(order))
        batch_ids, order = order[:take], order[take:]
        batch_plans = [plans[i] for i in batch_ids]

        graph = ad.Graph()
        leaves = {name: graph.leaf(value) for name, value in policy.params.items()}
        batch, segmentation, _, _ = _build_batch(policy, batch_plans, cfg.loss, graph, leaves)
        loss = batch_loss(batch, segmentation, cfg.loss)
        if not np.isfinite(loss.value):
            raise TrainingDivergedError(step, [p.index for p in batch_plans])
        graph.backward(loss)
        grads = {name: leaves[name].grad for name in policy.params}
        optimizer.update(policy.params, grads)

        if step % cfg.eval_every == 0 or step == cfg.steps:
            log.append(eval_pairs(policy, ref, dataset, cfg.loss, step=step, plans=plans))
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
    pairs). Bins nothing landed in are omitted entirely.
    """
    if not checkpoints:
        raise ValidationError("at least one checkpoint is required")
    if bins < 1:
        raise ValidationError(f"bins must be >= 1, got {bins}")
    if not (math.isfinite(beta) and beta > 0):
        raise ValidationError(f"beta must be finite and positive, got {beta}")
    if not dataset:
        raise ValidationError("dataset is empty")
    eval_cfg = LossConfig(method="dpo", beta=beta)
    plans = plan_dataset(dataset, eval_cfg, ref)
    rows: list[ProfileRow] = []
    for step, policy in checkpoints:
        graph = ad.Graph()
        batch, _, _, _ = _build_batch(policy, plans, eval_cfg, graph, leaves=None)
        bucket_rewards: list[list[float]] = [[] for _ in range(bins)]
        bucket_margin = np.zeros(bins)
        for pair in batch.pairs:
            for sign, node in ((1.0, pair.chosen), (-1.0, pair.rejected)):
                values = beta * node.value
                n = values.shape[0]
                for i, r in enumerate(values, start=1):
                    # normalized position i/n in (0, 1]; exact integer floor
                    b = min(i * bins // n, bins - 1)
                    bucket_rewards[b].append(float(r))
                    bucket_margin[b] += sign * float(r)
        n_pairs = len(batch.pairs)
        for b in range(bins):
            if not bucket_rewards[b]:
                continue
            rows.append(
                ProfileRow(
                    checkpoint=step,
                    bin_lo=b / bins,
                    bin_hi=(b + 1) / bins,
                    variance=float(np.var(np.asarray(bucket_rewards[b]))),
                    margin=float(bucket_margin[b] / n_pairs),
                )
            )
    return rows
