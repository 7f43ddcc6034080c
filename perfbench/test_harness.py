"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_harness.py
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from preflab import cli, config, lm, losses, oracle, trainer  # noqa: E402

import layers  # noqa: E402
from spans import Span, Tracer, install, is_original, self_times, snapshot  # noqa: E402
from stats import tail  # noqa: E402
from workloads import run_cli, space_counts  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,percentile,rank",
    [(20, 50.0, 10), (39, 50.0, 20), (40, 75.0, 30), (100, 90.0, 90), (200, 95.0, 190),
     (999, 95.0, 950), (1000, 99.0, 990)],
)
def test_tail_is_highest_ladder_percentile_with_ten_samples_beyond(n, percentile, rank):
    values = [float(i) for i in range(1, n + 1)]
    p, value = tail(values[::-1])  # order of the input does not matter
    assert (p, value) == (percentile, float(rank))
    assert sum(v > value for v in values) >= 10


@pytest.mark.parametrize("n", [0, 1, 11, 19])
def test_no_tail_below_twenty_samples(n):
    assert tail([1.0] * n) is None


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span("op", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.inner", 2.0, 3.0, parent=1),
        Span("b", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_self_time_counts_overlapping_children_once():
    spans = [Span("op", 0.0, 10.0), Span("a", 1.0, 5.0, parent=0), Span("b", 3.0, 7.0, parent=0)]
    assert self_times(spans)[0] == 4.0


def test_recorded_spans_nest_and_self_times_sum_to_wall():
    tracer = Tracer()

    def work():
        inner = tracer.open("outer")
        tracer.close(tracer.open("leaf"))
        tracer.close(inner)

    tracer.run_op(7, work)
    names = [s.name for s in tracer.spans]
    assert names == ["op", "outer", "leaf"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    assert {s.op for s in tracer.spans} == {7}
    assert sum(self_times(tracer.spans)) == pytest.approx(tracer.spans[0].duration, abs=1e-12)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _tiny_train(tmp_path):
    return run_cli([
        "train",
        "--set", "seed=3",
        "--set", f"output_dir={tmp_path / 'run'}",
        "--set", 'model={"vocab_size": 6, "context": 3, "hidden_dim": 4}',
        "--set", 'data={"vocab_size": 6, "n_pairs": 8, "max_len": 6}',
        "--set", 'loss={"method": "adpo", "family": "static", "k": 1}',
        "--set", 'train={"steps": 2, "batch_size": 4, "eval_every": 1}',
    ])


def test_wrappers_record_spans_then_leave_no_trace(tmp_path):
    tg = layers.targets()
    originals = snapshot(tg)
    tracer = Tracer()
    installed = install(tracer, tg)
    try:
        assert trainer.batch_loss is not losses.batch_loss
        rc, _ = tracer.run_op(1, lambda: _tiny_train(tmp_path))
        certificates = tracer.run_op(2, lambda: oracle.run_checks(3, 2, 0, which="reparam"))
    finally:
        installed.remove()
    assert rc == 0 and certificates[0]["pass"]

    names = {s.name for s in tracer.spans}
    for expected in ("cli.main", "config.resolve", "trainer.train", "trainer.eval_pairs",
                     "losses.batch_loss", "autodiff.backward", "lm.rows_forward",
                     "lm.row_logprobs", "composition.segment_pair", "trainer.optimizer",
                     "oracle.space_build", "oracle.reparam", "oracle.reparameterize"):
        assert expected in names
    view = layers.SpanView(tracer.spans)
    metrics = layers.per_layer(view, {"train_steps": 2, "sweeps": 1, "ref_rows_distinct": 1}, 1.0)
    assert (metrics["oracle.sequences"], metrics["oracle.contexts"]) == space_counts(3, 2, "eos")
    assert metrics["autodiff.nodes_per_step"] > 0 and metrics["composition.segment_calls"] == 8

    # removed: every name holds its original object again, and ops run
    # afterwards record nothing
    assert is_original(tg, originals)
    assert trainer.batch_loss is losses.batch_loss
    assert cli.train is trainer.train
    assert oracle.CHECKS["reparam"] is oracle.check_reparam
    assert isinstance(oracle.EnumSpace.__dict__["build"], classmethod)
    assert config.load_jsonl is cli.load_jsonl
    assert lm.NeuralPolicy.__dict__["rows_forward"] is originals[
        next(i for i, t in enumerate(tg) if t.name == "lm.rows_forward")
    ]
    recorded = len(tracer.spans)
    assert _tiny_train(tmp_path)[0] == 0
    oracle.run_checks(3, 2, 0, which="reparam")
    assert len(tracer.spans) == recorded


def test_install_failure_restores_what_it_wrapped():
    tg = layers.targets()
    originals = snapshot(tg)
    broken = tg[:3] + [layers.Target(trainer, "no_such_function", "x")]
    with pytest.raises(AttributeError):
        install(Tracer(), broken)
    assert is_original(tg, originals)


@pytest.mark.parametrize("v,n,mode", [(3, 1, "eos"), (4, 3, "eos"), (3, 4, "fixed"), (5, 2, "fixed")])
def test_space_counts_match_enumeration(v, n, mode):
    space = oracle.EnumSpace.build(v, n, mode)
    assert space_counts(v, n, mode) == (len(space.sequences), len(space.contexts))


# ---------------------------------------------------------------------------
# the command itself
# ---------------------------------------------------------------------------


def test_exits_nonzero_without_a_result_when_no_program_is_present(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-dpo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no program to measure" in proc.stderr
