"""The four workloads: their inputs, their operations and the checks on
every operation's output.

Each workload writes its inputs from the seed alone (``make_inputs``), so
any number of set-ups with one seed write byte-identical files. The
program receives only those files and arguments. An operation is one
call of a public entry point, made by a single client that waits for it
to return before sending the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from preflab import cli, data, lm, oracle

VOCAB = 12
MODEL = {"vocab_size": VOCAB, "context": 26, "embed_dim": 8, "hidden_dim": 48}


@dataclass
class Op:
    """One operation: ``call`` runs it, ``verify`` checks what it returned
    and gives a failure message or None. ``work`` is what it processes:
    pairs trained, pairs scored or sequences certified."""

    kind: str
    work: float
    call: Callable[[], Any]
    verify: Callable[[Any], str | None]
    # counts the traced run must record for this op, keyed by
    # (span name, count name); ops without them must repeat exactly
    expected: dict | None = None


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``preflab`` command; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    if rc != 0:
        out.write(err.getvalue())
    return rc, out.getvalue()


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _same_as_first(store: dict, key, value) -> str | None:
    first = store.setdefault(key, value)
    return None if first == value else f"{key}: output differs from its first run"


class Workload:
    name = ""
    primary = ""  # op kind whose per-op wall times give op_ms_p50
    unit_metric = None  # name under which the wall of one unit is printed
    min_units = 1

    def make_inputs(self, inputs: str, seed: int) -> None:
        raise NotImplementedError

    def prepare(self, inputs: str, work: str, seed: int) -> None:
        """Read what the ops need; ``work`` is scratch space for outputs."""
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        """Untimed ops run first: they fill caches and anchor the checks."""
        return []

    def unit(self) -> list[Op]:
        """The ops of one whole unit of work; a run repeats whole units."""
        raise NotImplementedError

    def trace_plan(self) -> list[tuple[Op, bool]]:
        """Ops for the traced run; True marks ops also run untraced, right
        before, to measure tracing overhead."""
        raise NotImplementedError

    def layer_info(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# train-dpo, train-token
# ---------------------------------------------------------------------------


class TrainWorkload(Workload):
    """One ``preflab train`` of the A7 desk shape, cut to ``STEPS`` steps."""

    primary = "train"
    STEPS = 100
    BATCH = 32
    N_PAIRS = 256

    def __init__(self, name: str, loss: dict, accuracy_floor: float):
        self.name = name
        self.loss = loss
        self.accuracy_floor = accuracy_floor

    def make_inputs(self, inputs: str, seed: int) -> None:
        task = data.BigramMatchTask(vocab=lm.Vocab(VOCAB), seed=seed)
        data.save_jsonl(data.generate_dataset(task, self.N_PAIRS), os.path.join(inputs, "data.jsonl"))
        _write_json(
            os.path.join(inputs, "config.json"),
            {
                "seed": seed,
                "model": MODEL,
                "loss": self.loss,
                "train": {
                    "optimizer": "adam",
                    "lr": 5e-4,
                    "steps": self.STEPS,
                    "batch_size": self.BATCH,
                    "eval_every": 50,
                    "checkpoint_every": 50,
                },
                "data": {"vocab_size": VOCAB},
            },
        )

    def prepare(self, inputs: str, work: str, seed: int) -> None:
        self.data_path = os.path.join(inputs, "data.jsonl")
        self.run_dir = os.path.join(work, "run")
        self.argv = [
            "train",
            "--config", os.path.join(inputs, "config.json"),
            "--set", f"data.path={self.data_path}",
            "--set", f"output_dir={self.run_dir}",
        ]
        self.seen: dict = {}

    def _op(self) -> Op:
        return Op("train", self.STEPS * self.BATCH, lambda: run_cli(self.argv), self._verify)

    def _verify(self, result) -> str | None:
        rc, out = result
        if rc != 0:
            return f"train exited {rc}: {out.strip()}"
        log = _read(os.path.join(self.run_dir, "trainlog.csv"))
        accuracy = float(log.decode().strip().splitlines()[-1].split(",")[-1])
        if accuracy < self.accuracy_floor:
            return f"final accuracy {accuracy} below floor {self.accuracy_floor}"
        return _same_as_first(self.seen, "trainlog.csv", log) or _same_as_first(
            self.seen, "final.json", _read(os.path.join(self.run_dir, "final.json"))
        )

    def warmup(self) -> list[Op]:
        return [self._op()]

    def unit(self) -> list[Op]:
        return [self._op()]

    def trace_plan(self) -> list[tuple[Op, bool]]:
        return [(self._op(), True) for _ in range(3)]

    def layer_info(self) -> dict:
        pairs = data.load_jsonl(self.data_path)
        return {
            "train_steps": self.STEPS,
            "ref_rows_distinct": sum(len(p.chosen) + len(p.rejected) for p in pairs),
        }


# ---------------------------------------------------------------------------
# eval-analyze
# ---------------------------------------------------------------------------


class EvalAnalyzeWorkload(Workload):
    """``preflab eval`` of each of 8 checkpoints, then one ``preflab
    analyze`` over all of them, on 1024 pairs of 4-64 tokens."""

    name = "eval-analyze"
    primary = "eval"
    unit_metric = "cycle_s"
    min_units = 2  # so every eval and the analyze CSV are repeated once
    N_PAIRS = 1024
    MAX_LEN = 64
    N_CHECKPOINTS = 8
    LOSS = {"method": "adpo", "family": "static", "k": 1, "beta": 1.0}

    def make_inputs(self, inputs: str, seed: int) -> None:
        vocab = lm.Vocab(VOCAB)
        task = data.BigramMatchTask(vocab=vocab, max_len=self.MAX_LEN, seed=seed)
        data.save_jsonl(data.generate_dataset(task, self.N_PAIRS), os.path.join(inputs, "data.jsonl"))
        for i in range(self.N_CHECKPOINTS + 1):
            rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
            policy = lm.NeuralPolicy.init(
                vocab, rng, context=MODEL["context"], embed_dim=MODEL["embed_dim"],
                hidden_dim=MODEL["hidden_dim"],
            )
            name = "ref.json" if i == 0 else f"checkpoint_{i:06d}.json"
            lm.save_checkpoint(policy, os.path.join(inputs, name))
        # eval and analyze read the loss and beta from this sibling file,
        # as they do in a train output directory
        _write_json(
            os.path.join(inputs, "config.resolved.json"),
            {"seed": seed, "model": MODEL, "loss": self.LOSS},
        )
        _write_json(os.path.join(inputs, "selfcheck.json"), {"seed": seed, "loss": {"method": "dpo"}})

    def prepare(self, inputs: str, work: str, seed: int) -> None:
        self.inputs = inputs
        self.data_path = os.path.join(inputs, "data.jsonl")
        self.ref = os.path.join(inputs, "ref.json")
        self.checkpoints = [
            os.path.join(inputs, f"checkpoint_{i:06d}.json")
            for i in range(1, self.N_CHECKPOINTS + 1)
        ]
        self.profile = os.path.join(work, "profile.csv")
        self.seen: dict = {}

    def _eval(self, checkpoint: str) -> Op:
        argv = ["eval", "--checkpoint", checkpoint, "--data", self.data_path]

        def verify(result):
            rc, out = result
            if rc != 0:
                return f"eval exited {rc}: {out.strip()}"
            return _same_as_first(self.seen, os.path.basename(checkpoint), out)

        return Op("eval", self.N_PAIRS, lambda: run_cli(argv), verify)

    def _analyze(self) -> Op:
        argv = [
            "analyze", "--checkpoints", *self.checkpoints, "--ref", self.ref,
            "--data", self.data_path, "--out", self.profile,
        ]

        def verify(result):
            rc, out = result
            if rc != 0:
                return f"analyze exited {rc}: {out.strip()}"
            return _same_as_first(self.seen, "profile.csv", _read(self.profile))

        return Op("analyze", self.N_PAIRS * self.N_CHECKPOINTS, lambda: run_cli(argv), verify)

    def _selfcheck(self) -> Op:
        """The reference against itself: loss ln 2, margin 0, accuracy 0.5."""
        argv = [
            "eval", "--checkpoint", self.ref, "--ref", self.ref, "--data", self.data_path,
            "--config", os.path.join(self.inputs, "selfcheck.json"),
        ]

        def verify(result):
            rc, out = result
            if rc != 0:
                return f"self-eval exited {rc}: {out.strip()}"
            doc = json.loads(out)
            if abs(doc["loss"] - math.log(2.0)) > 1e-12 or doc["margin"] != 0.0 or doc["accuracy"] != 0.5:
                return f"reference against itself gave {doc}"
            return None

        return Op("selfcheck", self.N_PAIRS, lambda: run_cli(argv), verify)

    def warmup(self) -> list[Op]:
        return [self._selfcheck()]

    def unit(self) -> list[Op]:
        return [self._eval(c) for c in self.checkpoints] + [self._analyze()]

    def trace_plan(self) -> list[tuple[Op, bool]]:
        return [(op, True) for op in self.unit()]

    def layer_info(self) -> dict:
        pairs = data.load_jsonl(self.data_path)
        return {"ref_rows_distinct": sum(len(p.chosen) + len(p.rejected) for p in pairs)}


# ---------------------------------------------------------------------------
# oracle-sweep
# ---------------------------------------------------------------------------


def space_counts(vocab_size: int, max_len: int, mode: str) -> tuple[int, int]:
    """(sequences, contexts) of an enumerable space, counted by formula."""
    width = vocab_size - 1 if mode == "eos" else vocab_size
    contexts = sum(width**t for t in range(max_len))
    return (contexts if mode == "eos" else vocab_size**max_len), contexts


class OracleSweepWorkload(Workload):
    """``oracle.run_checks`` once per (space, check) over every allowed
    space: 2 modes x 4 vocab sizes x 5 lengths x 5 checks = 200 ops."""

    name = "oracle-sweep"
    primary = "oracle"
    unit_metric = "oracle_sweep_s"
    # paired traced/untraced ops for the overhead ratio: the small spaces,
    # so the traced run stays short; the full sweep is traced once
    PAIRED_MAX_SEQUENCES = 1000

    def sweep(self) -> list[dict]:
        return [
            {"mode": mode, "vocab_size": v, "max_len": n, "check": check}
            for mode in ("eos", "fixed")
            for v in range(3, oracle.MAX_VOCAB + 1)
            for n in range(1, oracle.MAX_LEN + 1)
            for check in oracle.CHECKS
        ]

    def make_inputs(self, inputs: str, seed: int) -> None:
        _write_json(os.path.join(inputs, "sweep.json"), {"seed": seed, "ops": self.sweep()})

    def prepare(self, inputs: str, work: str, seed: int) -> None:
        with open(os.path.join(inputs, "sweep.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        self.seed = doc["seed"]
        self.ops = doc["ops"]

    def _op(self, spec: dict) -> Op:
        size, contexts = space_counts(spec["vocab_size"], spec["max_len"], spec["mode"])
        expected = {
            ("oracle.space_build", "sequences"): size,
            ("oracle.space_build", "contexts"): contexts,
        }

        def call():
            return oracle.run_checks(
                spec["vocab_size"], spec["max_len"], self.seed, which=spec["check"], mode=spec["mode"]
            )

        def verify(certificates):
            if [c["check"] for c in certificates] != [spec["check"]]:
                return f"{spec}: unexpected certificates {certificates}"
            if not certificates[0]["pass"]:
                return f"{spec}: certificate failed: {certificates[0]}"
            return None

        return Op("oracle", size, call, verify, expected)

    def warmup(self) -> list[Op]:
        return [self._op(spec) for spec in self.ops[:5]]

    def unit(self) -> list[Op]:
        return [self._op(spec) for spec in self.ops]

    def trace_plan(self) -> list[tuple[Op, bool]]:
        return [(op, op.work <= self.PAIRED_MAX_SEQUENCES) for op in self.unit()]

    def layer_info(self) -> dict:
        return {"sweeps": 1}


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "train-dpo": lambda: TrainWorkload("train-dpo", {"method": "dpo"}, accuracy_floor=0.70),
    "train-token": lambda: TrainWorkload(
        "train-token", {"method": "adpo", "family": "static", "k": 1}, accuracy_floor=0.65
    ),
    "eval-analyze": EvalAnalyzeWorkload,
    "oracle-sweep": OracleSweepWorkload,
}
