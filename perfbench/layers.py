"""Where the traced run wraps each layer of ``preflab``, and how the
per-layer metrics are read off the recorded spans.

Layers are the modules of ``src/preflab``. Every wrapper sits on the name
its caller looks up at call time (see ``spans``). Metrics come only from
spans of traced ops (op id >= 1); the traced set-up is op 0.
"""

from __future__ import annotations

from collections import defaultdict

from preflab import autodiff, cli, config, data, lm, oracle, trainer

from spans import Span, Target, self_times

SETUP_OP = 0
ORACLE_CHECKS = ("boltzmann", "optimality", "decompose", "reparam", "theorem1")
ORACLE_FUNCTIONS = {
    "reparameterize": "reparameterize",
    "additive_decompose": "additive_decompose",
    "ref_logmass": "ref_logmass",
    "kl_objective_batch": "kl_objective_batch",
    "energy_additivity_residual": "energy_additivity",
}


def _rows(index: int):
    return lambda args, kwargs: (lambda result: {"rows": len(args[index])})


def _graph_nodes(args, kwargs):
    n = len(args[0])
    return lambda result: {"nodes": n}


def _loss_nodes(args, kwargs):
    graph = args[0].pairs[0].chosen.graph
    before = len(graph)
    return lambda result: {"nodes": len(graph) - before}


def _checkpoints(args, kwargs):
    return lambda result: {"checkpoints": len(args[0])}


def _space(args, kwargs):
    return lambda space: {"sequences": len(space.sequences), "contexts": len(space.contexts)}


def targets() -> list[Target]:
    out = [
        Target(cli, "main", "cli.main"),
        Target(cli, "train", "trainer.train"),
        Target(cli, "eval_pairs", "trainer.eval_pairs"),
        Target(cli, "prefix_reward_profile", "trainer.prefix_reward_profile", _checkpoints),
        Target(cli, "load_jsonl", "data.load_jsonl"),
        Target(cli, "check_dataset", "data.check_dataset"),
        Target(cli, "load_checkpoint", "lm.load_checkpoint"),
        Target(cli, "save_checkpoint", "lm.save_checkpoint"),
        Target(trainer, "eval_pairs", "trainer.eval_pairs"),
        Target(trainer, "plan_dataset", "trainer.plan_dataset"),
        Target(trainer, "batch_loss", "losses.batch_loss", _loss_nodes),
        Target(trainer, "segment_pair", "composition.segment_pair"),
        Target(trainer, "pad_tokens", "composition.pad_tokens"),
        Target(trainer.AdamOptimizer, "update", "trainer.optimizer"),
        Target(autodiff.Graph, "backward", "autodiff.backward", _graph_nodes),
        Target(lm.NeuralPolicy, "rows_forward", "lm.rows_forward", _rows(3)),
        Target(lm.NeuralPolicy, "row_logprobs", "lm.row_logprobs", _rows(2)),
        Target(lm.NeuralPolicy, "context_rows", "lm.context_rows"),
        Target(config, "load_jsonl", "data.load_jsonl"),
        Target(data, "generate_dataset", "data.generate_dataset"),
        Target(data, "save_jsonl", "data.save_jsonl"),
        Target(oracle.EnumSpace, "build", "oracle.space_build", _space),
    ]
    for name in ("load_config", "apply_overrides", "resolve", "build_dataset", "build_model",
                 "build_train_config", "build_loss_config", "write_resolved"):
        out.append(Target(config, name, f"config.{name}"))
    for check in ORACLE_CHECKS:
        out.append(Target(oracle.CHECKS, check, f"oracle.{check}"))
    for fn, label in ORACLE_FUNCTIONS.items():
        out.append(Target(oracle, fn, f"oracle.{label}"))
    return out


class SpanView:
    """Spans with self times and ancestor names, for metric queries."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.self_s = self_times(spans)
        self.ancestors: list[frozenset] = []
        for s in spans:
            names = set()
            p = s.parent
            while p is not None:
                names.add(spans[p].name)
                p = spans[p].parent
            self.ancestors.append(frozenset(names))

    def select(self, name: str, where=lambda i: True, setup=False) -> list[int]:
        """Indices of spans called ``name`` that satisfy ``where``, from the
        traced ops, or from the traced set-up when ``setup`` is true."""
        return [
            i for i, s in enumerate(self.spans)
            if s.name == name and (s.op == SETUP_OP) == setup and where(i)
        ]

    def total(self, idx: list[int], self_time=False) -> float:
        return sum(self.self_s[i] if self_time else self.spans[i].duration for i in idx)

    def count(self, idx: list[int], key: str) -> int:
        return sum(self.spans[i].counts[key] for i in idx)

    def parent_name(self, i: int) -> str | None:
        p = self.spans[i].parent
        return None if p is None else self.spans[p].name

    def in_step(self, i: int) -> bool:
        """Inside a train loop step: under train, not under periodic eval."""
        a = self.ancestors[i]
        return "trainer.train" in a and "trainer.eval_pairs" not in a


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def per_layer(view: SpanView, info: dict, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    v = view
    commands = len(v.select("cli.main"))
    steps = len(v.select("trainer.train")) * info.get("train_steps", 0)
    sweeps = info.get("sweeps", 0)

    backward = v.select("autodiff.backward")
    fwd_step = v.select("lm.rows_forward", lambda i: v.in_step(i) and v.parent_name(i) != "lm.row_logprobs")
    fwd_eval = v.select("lm.rows_forward", lambda i: not v.in_step(i) and v.parent_name(i) != "lm.row_logprobs")
    ref_step = v.select("lm.row_logprobs", v.in_step)
    ref_all = v.select("lm.row_logprobs")
    loss_step = v.select("losses.batch_loss", v.in_step)
    loss_eval = v.select("losses.batch_loss", lambda i: "trainer.eval_pairs" in v.ancestors[i])
    train_spans = v.select("trainer.train")
    eval_in_train = v.select("trainer.eval_pairs", lambda i: "trainer.train" in v.ancestors[i])
    plans = v.select("trainer.plan_dataset")
    profiles = v.select("trainer.prefix_reward_profile")
    loads = v.select("lm.load_checkpoint")
    saves = v.select("lm.save_checkpoint")
    jsonl = v.select("data.load_jsonl")
    config_spans = [i for i, s in enumerate(v.spans) if s.name.startswith("config.") and s.op != SETUP_OP]
    composition = v.select("composition.segment_pair") + v.select("composition.pad_tokens")
    builds = v.select("oracle.space_build")

    m = {
        "autodiff.backward_ms_per_step": _div(_ms(v.total(backward)), steps),
        "autodiff.nodes_per_step": _div(v.count(backward, "nodes"), len(backward)),
        "lm.policy_forward_ms_per_step": _div(_ms(v.total(fwd_step)), steps),
        "lm.ref_forward_ms_per_step": _div(_ms(v.total(ref_step)), steps),
        "lm.rows_per_step": _div(v.count(fwd_step, "rows"), steps),
        "lm.ref_recompute_ratio": _div(
            v.count(ref_all, "rows"), info.get("ref_rows_distinct", 0) * commands
        ),
        "lm.eval_forward_ms_per_call": _div(_ms(v.total(fwd_eval)), len(fwd_eval)),
        "lm.context_rows_calls": _div(len(v.select("lm.context_rows")), commands),
        "lm.checkpoint_load_ms": _div(_ms(v.total(loads)), len(loads)),
        "lm.checkpoint_save_ms": _div(_ms(v.total(saves)), len(saves)),
        "composition.segment_ms": _div(_ms(v.total(composition)), commands),
        "composition.segment_calls": _div(len(v.select("composition.segment_pair")), commands),
        "losses.loss_ms_per_step": _div(_ms(v.total(loss_step)), steps),
        "losses.loss_nodes_per_step": _div(v.count(loss_step, "nodes"), len(loss_step)),
        "losses.loss_ms_per_eval": _div(_ms(v.total(loss_eval)), len(loss_eval)),
        "trainer.step_self_ms": _div(_ms(v.total(train_spans, self_time=True)), steps),
        "trainer.optimizer_ms_per_step": _div(_ms(v.total(v.select("trainer.optimizer"))), steps),
        "trainer.eval_share": _div(v.total(eval_in_train), v.total(train_spans)),
        "trainer.plan_ms": _div(_ms(v.total(plans)), len(plans)),
        "trainer.profile_ms_per_checkpoint": _div(
            _ms(v.total(profiles)), v.count(profiles, "checkpoints")
        ),
        "data.load_jsonl_ms": _div(_ms(v.total(jsonl)), len(jsonl)),
        "data.generate_ms": _ms(v.total(v.select("data.generate_dataset", setup=True))),
        "data.save_jsonl_ms": _ms(v.total(v.select("data.save_jsonl", setup=True))),
        "config.resolve_ms": _div(_ms(v.total(config_spans, self_time=True)), commands),
        "cli.self_ms_per_command": _div(_ms(v.total(v.select("cli.main"), self_time=True)), commands),
        "oracle.space_build_ms": _div(_ms(v.total(builds)), len(builds)),
    }
    for check in ORACLE_CHECKS:
        m[f"oracle.{check}_ms"] = _div(_ms(v.total(v.select(f"oracle.{check}"))), sweeps)
    for label in ORACLE_FUNCTIONS.values():
        m[f"oracle.{label}_ms"] = _div(
            _ms(v.total(v.select(f"oracle.{label}"), self_time=True)), sweeps
        )
    m["oracle.sequences"] = _div(v.count(builds, "sequences"), sweeps)
    m["oracle.contexts"] = _div(v.count(builds, "contexts"), sweeps)
    m["trace_overhead_ratio"] = overhead_ratio
    return m


UNITS = {
    "autodiff.nodes_per_step": "count",
    "lm.rows_per_step": "count",
    "lm.ref_recompute_ratio": "ratio",
    "lm.context_rows_calls": "count",
    "composition.segment_calls": "count",
    "losses.loss_nodes_per_step": "count",
    "trainer.eval_share": "ratio",
    "oracle.sequences": "count",
    "oracle.contexts": "count",
    "trace_overhead_ratio": "ratio",
}


def unit_of(metric: str) -> str:
    return UNITS.get(metric, "ms")


def op_signature(view: SpanView, op_id: int) -> tuple:
    """Call counts per span name and summed counts of one op: what must
    repeat exactly whenever the same op runs on the same inputs."""
    calls: dict[str, int] = defaultdict(int)
    sums: dict[tuple[str, str], int] = defaultdict(int)
    for s in view.spans:
        if s.op == op_id:
            calls[s.name] += 1
            for key, value in s.counts.items():
                sums[(s.name, key)] += value
    return tuple(sorted(calls.items())), tuple(sorted(sums.items()))
