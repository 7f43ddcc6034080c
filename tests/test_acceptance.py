"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line (visible with pytest -s or in captured
output on failure). Criteria with runtime budgets assert the measured
elapsed time as well.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from preflab import autodiff as ad
from preflab import data as D
from preflab import lm, losses, oracle, trainer
from preflab.cli import main as cli_main
from preflab.losses import segment_pair
from preflab.seeds import child_rng

from helpers import grad_check, random_prefix_reward, reference_dpo, segment_bounds, shift_drift


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def random_pair_population(seed: int, n_pairs: int = 1000, max_len: int = 64):
    """Shared pair population: lengths 1-64, standard-normal log-ratios,
    beta cycling over {0.5, 1.0, 1.5}."""
    rng = np.random.default_rng(seed)
    population = []
    for i in range(n_pairs):
        lw = int(rng.integers(1, max_len + 1))
        ll = int(rng.integers(1, max_len + 1))
        population.append(
            (
                rng.standard_normal(lw),
                rng.standard_normal(ll),
                (0.5, 1.0, 1.5)[i % 3],
            )
        )
    return population


def one_pair_batch(graph, chosen, rejected, beta):
    pair = losses.PairLogRatios(chosen=graph.leaf(chosen), rejected=graph.leaf(rejected))
    return losses.LogRatioBatch([pair], beta=beta)


class TestA1Corollary1Equivalence:
    def test_adaptive_m1_equals_dpo(self):
        # dpo_loss is adpo_loss at m=1 by construction, so both are checked
        # against DPO written out apart from the loss module
        start = time.perf_counter()
        worst = 0.0
        for chosen, rejected, beta in random_pair_population(seed=101):
            g = ad.Graph()
            batch = one_pair_batch(g, chosen, rejected, beta)
            seg = segment_pair((len(chosen), len(rejected)), "adaptive", 1)
            d = reference_dpo([(chosen, rejected)], beta)
            for loss in (losses.adpo_loss(batch, [seg]), losses.dpo_loss(batch)):
                worst = max(worst, abs(float(loss.value) - d))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-12 and elapsed < 5.0
        _report("A1", ok, f"max |adpo(m=1) or dpo_loss - dpo| = {worst:.3e}, {elapsed:.2f}s")


class TestA2StaticCollapse:
    def test_giant_window_equals_dpo(self):
        start = time.perf_counter()
        worst = 0.0
        for chosen, rejected, beta in random_pair_population(seed=101):
            seg = segment_pair((len(chosen), len(rejected)), "static", 64)
            assert len(segment_bounds(seg)[0]) == 1  # k >= the longer side
            g = ad.Graph()
            batch = one_pair_batch(g, chosen, rejected, beta)
            a = float(losses.adpo_loss(batch, [seg]).value)
            worst = max(worst, abs(a - reference_dpo([(chosen, rejected)], beta)))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-12
        _report("A2", ok, f"max |adpo(static, k>=T) - dpo| = {worst:.3e}, {elapsed:.2f}s")


class TestA3GradientFidelity:
    VARIANTS = (
        ("dpo", None, None),
        ("adpo", "static", 1),
        ("adpo", "static", 2),
        ("adpo", "static", 4),
        ("adpo", "adaptive", 1),
        ("adpo", "adaptive", 2),
        ("adpo", "adaptive", 16),
        ("cadpo", "adaptive", 3),
    )

    def test_fifty_random_configurations(self):
        start = time.perf_counter()
        rng = np.random.default_rng(103)
        worst = 0.0
        for i in range(50):
            method, family, param = self.VARIANTS[i % len(self.VARIANTS)]
            # two to four pairs, so that the backward's 1/B scale is checked
            lengths = rng.integers(1, 11, size=(int(rng.integers(2, 5)), 2)).tolist()
            beta = (0.5, 1.0, 1.5)[i % 3]
            scores = [rng.uniform(0.0, 1.0, size=ll) for _, ll in lengths]
            if method == "dpo":
                segs = None
            else:
                segs = [segment_pair(n, family, param) for n in lengths]

            def build(graph, leaves):
                pairs = [losses.PairLogRatios(w, l) for w, l in zip(leaves[0::2], leaves[1::2])]
                batch = losses.LogRatioBatch(pairs, beta=beta)
                if method == "dpo":
                    return losses.dpo_loss(batch)
                if method == "cadpo":
                    return losses.cadpo_loss(batch, segs, scores)
                return losses.adpo_loss(batch, segs)

            params = [0.5 * rng.standard_normal(n) for pair in lengths for n in pair]
            report = grad_check(build, params, h=1e-5, tol=1e-6)
            worst = max(worst, report.max_rel_error)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-6 and elapsed < 30.0
        _report("A3", ok, f"max rel grad error = {worst:.3e}, {elapsed:.2f}s")


class TestA4ReparameterizationCompleteness:
    def test_hundred_random_prefix_rewards(self):
        start = time.perf_counter()
        rng = np.random.default_rng(104)
        worst_resid = 0.0
        worst_shift = 0.0
        for i in range(100):
            v = int(rng.integers(3, 6))
            length = int(rng.integers(1, 5))
            mode = ("eos", "fixed")[i % 2]
            beta = (0.5, 1.0, 1.5)[i % 3]
            space = oracle.EnumSpace.build(v, length, mode=mode)
            table = oracle.reference_table(space, lm.NGramPolicy.random(space.vocab, 2, rng))
            rstar = random_prefix_reward(space, rng)
            result = oracle.reparameterize(space, rstar, table, beta)
            worst_resid = max(worst_resid, result.max_residual)
            offsets = rng.standard_normal(len(space.contexts))
            worst_shift = max(worst_shift, shift_drift(space, rstar, table, beta, offsets))
        elapsed = time.perf_counter() - start
        ok = worst_resid <= 1e-10 and worst_shift <= 1e-12 and elapsed < 60.0
        _report(
            "A4",
            ok,
            f"max representative residual = {worst_resid:.3e}, "
            f"max shift-invariance drift = {worst_shift:.3e}, {elapsed:.2f}s",
        )


class TestA5KlOptimality:
    def test_boltzmann_beats_ten_thousand_policies(self):
        start = time.perf_counter()
        rng = np.random.default_rng(105)
        space = oracle.EnumSpace.build(4, 3, mode="eos")
        table = oracle.reference_table(space, lm.NGramPolicy.random(space.vocab, 2, rng))
        reward = oracle.random_reward(space, rng)
        beta = 1.0
        logmass = oracle.ref_logmass(space, table)
        optimum = oracle.boltzmann_distribution(space, reward, logmass, beta)
        best = oracle.kl_objective_batch(space, optimum, reward, logmass, beta)
        # the 10,000 policies scored in one call: each row's J is bit for bit
        # its one-row call's (TestKlObjective)
        policies = np.exp(oracle.random_log_policies(space, 10_000, rng))
        gaps = best - oracle.kl_objective_batch(space, policies, reward, logmass, beta)
        min_gap = float(np.min(gaps))
        worst_energy = 0.0
        for _ in range(100):
            rstar = random_prefix_reward(space, rng)
            worst_energy = max(
                worst_energy, oracle.energy_additivity_residual(space, rstar, table, beta)
            )
        elapsed = time.perf_counter() - start
        ok = min_gap >= -1e-12 and worst_energy <= 1e-12 and elapsed < 60.0
        _report(
            "A5",
            ok,
            f"min objective gap = {min_gap:.3e}, "
            f"max energy-additivity residual = {worst_energy:.3e}, {elapsed:.2f}s",
        )


class TestA6RewardReconstruction:
    def test_hundred_random_rewards(self):
        start = time.perf_counter()
        rng = np.random.default_rng(106)
        space = oracle.EnumSpace.build(3, 3, mode="eos")
        table = oracle.reference_table(space, lm.NGramPolicy.random(space.vocab, 2, rng))
        logmass = oracle.ref_logmass(space, table)
        worst = 0.0
        for i in range(100):
            beta = (0.5, 1.0, 1.5)[i % 3]
            reward = oracle.random_reward(space, rng)
            worst = max(worst, oracle.reconstruction_spread(space, reward, table, logmass, beta))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-9
        _report("A6", ok, f"max reconstruction spread = {worst:.3e}, {elapsed:.2f}s")


def _moving_average(xs, window=10):
    return [sum(xs[i - window + 1 : i + 1]) / window for i in range(window - 1, len(xs))]


def _run_desk_training(method: str, family: str, k):
    vocab = lm.Vocab(12)
    task = D.BigramMatchTask(vocab=vocab, seed=0)
    dataset = D.generate_dataset(task, 256)
    policy = lm.NeuralPolicy.init(
        vocab, child_rng(0, "init"), context=26, embed_dim=8, hidden_dim=48
    )
    cfg = trainer.TrainConfig(
        loss=losses.LossConfig(method=method, family=family, k=k, beta=1.0),
        optimizer="adam",
        lr=5e-4,
        steps=2000,
        batch_size=32,
        seed=0,
        eval_every=50,
        checkpoint_every=0,
    )
    start = time.perf_counter()
    result = trainer.train(dataset, policy, cfg)
    elapsed = time.perf_counter() - start
    return result, elapsed, dataset


class TestA7DeskScaleTraining:
    @pytest.mark.parametrize(
        "label,method,family,k",
        [("dpo", "dpo", "adaptive", None), ("adpo-token", "adpo", "static", 1)],
    )
    def test_training_reaches_accuracy_with_expected_curves(
        self, label, method, family, k
    ):
        result, elapsed, _ = _run_desk_training(method, family, k)
        accuracy = result.log[-1].accuracy
        final_half = [row for row in result.log if row.step >= 1000]
        chosen_ma = _moving_average([row.chosen_logp for row in final_half])
        rejected_ma = _moving_average([row.rejected_logp for row in final_half])
        chosen_ok = all(b >= a for a, b in zip(chosen_ma, chosen_ma[1:]))
        rejected_ok = all(b <= a for a, b in zip(rejected_ma, rejected_ma[1:]))
        ok = accuracy >= 0.95 and elapsed < 60.0 and chosen_ok and rejected_ok
        _report(
            f"A7:{label}",
            ok,
            f"accuracy = {accuracy:.3f}, {elapsed:.1f}s, "
            f"chosen non-decreasing = {chosen_ok}, rejected non-increasing = {rejected_ok}",
        )


class TestA8MarginDecomposition:
    def test_every_evaluation_batch(self):
        vocab = lm.Vocab(12)
        task = D.BigramMatchTask(vocab=vocab, seed=1)
        dataset = D.generate_dataset(task, 128)
        policy = lm.NeuralPolicy.init(vocab, child_rng(1, "init"))
        cfg = trainer.TrainConfig(
            loss=losses.LossConfig(method="adpo", family="static", k=1, beta=1.5),
            steps=150,
            batch_size=32,
            seed=1,
            eval_every=150,
            checkpoint_every=0,
        )
        result = trainer.train(dataset, policy, cfg)
        ref = lm.NeuralPolicy.init(vocab, child_rng(1, "init"))
        beta = 1.5
        # per-token implicit rewards: beta times the plan's untracked log-ratios
        plan = trainer.plan_dataset(dataset, None, ref)
        _, log_ratios = plan.log_ratios(result.policy)
        worst = 0.0
        for j, pair in enumerate(dataset):
            lw = lm.token_logprobs(result.policy, pair.prompt, pair.chosen) - \
                lm.token_logprobs(ref, pair.prompt, pair.chosen)
            ll = lm.token_logprobs(result.policy, pair.prompt, pair.rejected) - \
                lm.token_logprobs(ref, pair.prompt, pair.rejected)
            a, b, c = plan.offsets[2 * j : 2 * j + 3]
            r_w, r_l = beta * log_ratios[a:b], beta * log_ratios[b:c]
            reward_sum = float(np.sum(r_w) - np.sum(r_l))
            dpo_logit = beta * (float(np.sum(lw)) - float(np.sum(ll)))
            worst = max(worst, abs(reward_sum - dpo_logit))
        ok = worst <= 1e-9
        _report("A8", ok, f"max margin-decomposition residual = {worst:.3e}")


class TestA9CliDeterminism:
    def test_two_identical_train_runs(self, tmp_path):
        data_cfg = tmp_path / "gen.json"
        data_cfg.write_text(
            json.dumps({"seed": 2, "data": {"vocab_size": 12, "n_pairs": 32}})
        )
        data_path = tmp_path / "data.jsonl"
        assert cli_main(["gen-data", "--config", str(data_cfg), "--out", str(data_path)]) == 0

        out_dir = tmp_path / "run"
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(
            json.dumps(
                {
                    "seed": 2,
                    "output_dir": str(out_dir),
                    "model": {"vocab_size": 12, "context": 6, "embed_dim": 4, "hidden_dim": 12},
                    "loss": {"method": "adpo", "family": "adaptive", "m": 4},
                    "train": {
                        "steps": 40, "batch_size": 8, "eval_every": 10,
                        "checkpoint_every": 20, "lr": 0.01,
                    },
                    "data": {"path": str(data_path), "vocab_size": 12},
                }
            )
        )
        snapshots = []
        for _ in range(2):
            assert cli_main(["train", "--config", str(train_cfg)]) == 0
            snapshots.append(
                {
                    f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in sorted(out_dir.iterdir())
                }
            )
        csv_and_ckpts = [
            name
            for name in snapshots[0]
            if name.endswith(".csv") or name.endswith(".json")
        ]
        identical = all(snapshots[0][n] == snapshots[1][n] for n in csv_and_ckpts)
        ok = identical and len(csv_and_ckpts) >= 5
        _report("A9", ok, f"{len(csv_and_ckpts)} output files byte-identical = {identical}")


class TestA10CadpoLimits:
    def test_zero_and_unit_scores(self):
        start = time.perf_counter()
        worst_zero = 0.0
        worst_unit = 0.0
        for i, (chosen, rejected, beta) in enumerate(random_pair_population(seed=110)):
            seg = segment_pair((len(chosen), len(rejected)), "adaptive", (i % 4) + 1)
            g = ad.Graph()
            batch = one_pair_batch(g, chosen, rejected, beta)
            adpo = float(losses.adpo_loss(batch, [seg]).value)
            zero_scores = float(
                losses.cadpo_loss(batch, [seg], [np.zeros(len(rejected))]).value
            )
            worst_zero = max(worst_zero, abs(zero_scores - adpo))
            unit_scores = float(
                losses.cadpo_loss(batch, [seg], [np.ones(len(rejected))]).value
            )
            w_bounds, l_bounds = segment_bounds(seg)
            kept = [
                j for j, ((a, b), (c, d)) in enumerate(zip(w_bounds, l_bounds)) if b > a or d > c
            ]
            s_w = np.array([np.sum(chosen[a:b]) for a, b in (w_bounds[j] for j in kept)])
            rejected_free = float(np.sum(-ad.log_sigmoid_values(beta * s_w)))
            worst_unit = max(worst_unit, abs(unit_scores - rejected_free))
        elapsed = time.perf_counter() - start
        ok = worst_zero <= 1e-12 and worst_unit <= 1e-12
        _report(
            "A10",
            ok,
            f"zero-score drift = {worst_zero:.3e}, unit-score drift = {worst_unit:.3e}, "
            f"{elapsed:.2f}s",
        )
