"""Unit tests for the training loop and diagnostics."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from preflab import autodiff as ad
from preflab import data as D
from preflab import lm, losses, trainer
from preflab.composition import segment_pair
from preflab.errors import TrainingDivergedError, ValidationError
from preflab.seeds import child_rng


def small_setup(seed=0, n_pairs=24, **task_kw):
    vocab = lm.Vocab(12)
    task = D.BigramMatchTask(vocab=vocab, seed=seed, **task_kw)
    dataset = D.generate_dataset(task, n_pairs)
    policy = lm.NeuralPolicy.init(
        vocab, child_rng(seed, "init"), context=6, embed_dim=4, hidden_dim=12
    )
    return vocab, dataset, policy


def quick_config(method="dpo", steps=30, **kw):
    loss = losses.LossConfig(method=method, family="static", k=1, beta=1.0)
    if method == "dpo":
        loss = losses.LossConfig(method="dpo", beta=1.0)
    defaults = dict(
        loss=loss, steps=steps, batch_size=8, seed=0, eval_every=10, checkpoint_every=0,
    )
    defaults.update(kw)
    return trainer.TrainConfig(**defaults)


class TestDeterminism:
    def test_same_seed_bitwise_identical_logs(self):
        logs = []
        for _ in range(2):
            _, dataset, policy = small_setup()
            result = trainer.train(dataset, policy, quick_config())
            logs.append(trainer.to_csv(trainer.TrainLogRow, result.log))
        assert logs[0] == logs[1]

    def test_same_seed_bitwise_identical_params(self):
        params = []
        for _ in range(2):
            _, dataset, policy = small_setup()
            result = trainer.train(dataset, policy, quick_config())
            params.append({k: v.copy() for k, v in result.policy.params.items()})
        for name in params[0]:
            assert np.array_equal(params[0][name], params[1][name])

    def test_plan_reference_values_equal_fresh_forward(self):
        # dpo (planned as adaptive m=1) and adpo static k=1
        for method in ("dpo", "adpo"):
            _, dataset, policy = small_setup()
            ref = lm.clone_frozen(policy)
            plan = trainer.plan_dataset(dataset, quick_config(method).loss, ref)
            sides = [ref.context_rows(p.prompt, s) for p in dataset for s in (p.chosen, p.rejected)]
            rows = np.concatenate([r for r, _ in sides])
            targets = np.concatenate([t for _, t in sides])
            assert np.array_equal(plan.rows, rows) and np.array_equal(plan.targets, targets)
            assert np.array_equal(plan.ref_logp, ref.row_logprobs(rows, targets))


class TestPlans:
    def test_static_plans_forward_only_response_tokens(self):
        _, dataset, policy = small_setup()
        plan = trainer.plan_dataset(dataset, quick_config("adpo").loss, lm.clone_frozen(policy))
        lengths = [len(s) for p in dataset for s in (p.chosen, p.rejected)]
        assert np.diff(plan.offsets).tolist() == lengths
        assert len(plan.targets) == sum(lengths)
        assert policy.vocab.pad not in plan.targets.tolist()

    def test_dpo_is_planned_as_one_adaptive_segment(self):
        _, dataset, policy = small_setup()
        plan = trainer.plan_dataset(dataset, quick_config("dpo").loss, lm.clone_frozen(policy))
        lengths = [len(s) for p in dataset for s in (p.chosen, p.rejected)]
        # one segment per pair, covering both whole sides, chosen +1, rejected -1
        assert plan.layout.lengths.tolist() == lengths
        assert plan.layout.kept.tolist() == [1] * len(dataset)
        assert not plan.layout.ranks.any()
        sign = np.repeat(np.tile([1.0, -1.0], len(dataset)), lengths)
        assert np.array_equal(plan.layout.weights, sign)

    def test_batch_positions_index_the_stack(self):
        # an n-gram forward is a table lookup, so sub-batches are exact slices
        vocab, dataset, _ = small_setup()
        policy = lm.NGramPolicy.random(vocab, 2, np.random.default_rng(0))
        plan = trainer.plan_dataset(dataset, quick_config("adpo").loss, lm.clone_frozen(policy))
        policy.params["logits"] += np.random.default_rng(1).standard_normal((12, 12))
        _, whole, _ = plan.log_ratios(policy, ad.Graph())
        ids = np.array([5, 0, 17, 5])
        _, part, layout = plan.log_ratios(policy, ad.Graph(), pair_ids=ids)
        spans = [slice(plan.offsets[2 * i], plan.offsets[2 * i + 2]) for i in ids]
        assert np.array_equal(part.value, np.concatenate([whole.value[s] for s in spans]))
        for got, full in ((layout.ranks, plan.layout.ranks), (layout.weights, plan.layout.weights)):
            assert np.array_equal(got, np.concatenate([full[s] for s in spans]))
        sides = [2 * i + j for i in ids for j in (0, 1)]
        assert np.array_equal(layout.lengths, plan.layout.lengths[sides])
        assert np.array_equal(layout.kept, plan.layout.kept[ids])


class TestPlannedLayout:
    """The segment layout is planned once per command and selected per batch;
    it must give what the losses give over the batch's own segmentation."""

    CONFIGS = {
        "dpo": losses.LossConfig(method="dpo"),
        "static1": losses.LossConfig(method="adpo", family="static", k=1),
        "static2": losses.LossConfig(method="adpo", family="static", k=2),
        "adaptive3": losses.LossConfig(method="adpo", family="adaptive", m=3),
        "cadpo": losses.LossConfig(method="adpo", family="static", k=2, weighted=True),
    }

    @staticmethod
    def own_loss(cfg, batch, pairs):
        if cfg.method == "dpo":
            return losses.dpo_loss(batch)
        segs = [
            segment_pair((len(p.chosen), len(p.rejected)), cfg.family, cfg.segment_param())
            for p in pairs
        ]
        if cfg.weighted:
            return losses.cadpo_loss(batch, segs, [p.rejected_scores for p in pairs])
        return losses.adpo_loss(batch, segs)

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_selected_layout_matches_own_segmentation_bitwise(self, name):
        cfg = self.CONFIGS[name]
        vocab, dataset, policy = small_setup()
        D.attach_scores(dataset, vocab, seed=0)
        plan = trainer.plan_dataset(dataset, cfg, lm.clone_frozen(policy))
        rng = np.random.default_rng(14)
        for param in policy.params.values():
            param += 0.3 * rng.standard_normal(param.shape)
        for _ in range(4):
            ids = rng.integers(0, len(dataset), size=int(rng.integers(1, 12)))
            runs = []
            for planned in (True, False):
                g = ad.Graph()
                leaves = {n: g.leaf(v) for n, v in policy.params.items()}
                batch, layout, _, _ = trainer._build_batch(plan, policy, cfg.beta, g, leaves, ids)
                if planned:
                    loss = losses.batch_loss(batch, layout)
                else:
                    loss = self.own_loss(cfg, batch, [dataset[i] for i in ids])
                g.backward(loss)
                runs.append([loss.value] + [leaves[n].grad for n in sorted(leaves)])
            assert all(np.array_equal(a, b) for a, b in zip(*runs))

    def test_misaligned_layout_names_the_pair(self):
        _, dataset, policy = small_setup()
        cfg = self.CONFIGS["static1"]
        plan = trainer.plan_dataset(dataset, cfg, lm.clone_frozen(policy))
        batch, _, _, _ = trainer._build_batch(plan, policy, 1.0, ad.Graph(), pair_ids=[0, 1, 2])
        lengths = [(len(p.chosen), len(p.rejected)) for p in dataset]
        other = next(n for n in lengths if n != lengths[2])
        wrong = losses.segment_layout(
            [segment_pair(n, "static", 1) for n in (lengths[0], lengths[1], other)]
        )
        named = re.escape(f"pair 2: segmentation expects lengths {other}")
        with pytest.raises(ValidationError, match=named):
            losses.batch_loss(batch, wrong)


class TestPlanRefusesOtherModels:
    """A plan's rows and reference log-probs belong to its reference's
    geometry; scoring another model against them must fail, not report."""

    @pytest.mark.parametrize("other", ["context", "vocab", "kind"])
    def test_eval_and_profile_refuse(self, other):
        vocab, dataset, policy = small_setup()
        ref = lm.clone_frozen(policy)
        if other == "kind":
            stranger = lm.NGramPolicy.random(vocab, 2, np.random.default_rng(0))
        else:
            stranger = lm.NeuralPolicy.init(
                lm.Vocab(13) if other == "vocab" else vocab, child_rng(1, "init"),
                context=3 if other == "context" else 6, embed_dim=4, hidden_dim=12,
            )
        with pytest.raises(ValidationError, match="but the reference is a neural model"):
            trainer.eval_pairs(stranger, ref, dataset, losses.LossConfig(method="dpo"))
        with pytest.raises(ValidationError, match="^checkpoint 7 is a"):
            trainer.prefix_reward_profile([(0, policy), (7, stranger)], ref, dataset, beta=1.0)


class TestTrainBasics:
    def test_zero_lr_keeps_loss_constant(self):
        _, dataset, policy = small_setup()
        result = trainer.train(dataset, policy, quick_config(lr=0.0))
        losses_seen = {row.loss for row in result.log}
        assert len(losses_seen) == 1

    def test_loss_decreases_on_quick_run(self):
        _, dataset, policy = small_setup()
        result = trainer.train(dataset, policy, quick_config(steps=200, lr=1e-2))
        assert result.log[-1].loss < result.log[0].loss

    def test_reference_immutable_bitwise(self):
        _, dataset, policy = small_setup()
        ref = lm.clone_frozen(policy)
        before = {k: v.copy() for k, v in ref.params.items()}
        trainer.train(dataset, policy, quick_config(steps=100, lr=1e-2))
        for name, value in ref.params.items():
            assert np.array_equal(before[name], value)

    def test_frozen_policy_rejected(self):
        _, dataset, policy = small_setup()
        with pytest.raises(ValidationError):
            trainer.train(dataset, lm.clone_frozen(policy), quick_config())

    def test_empty_dataset_rejected(self):
        _, _, policy = small_setup()
        with pytest.raises(ValidationError):
            trainer.train([], policy, quick_config())

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_lr_rejected(self, lr):
        _, dataset, policy = small_setup()
        with pytest.raises(ValidationError, match="lr must be finite"):
            trainer.train(dataset, policy, quick_config(lr=lr))

    def test_nan_loss_aborts_with_step_and_pairs(self):
        _, dataset, policy = small_setup()
        policy.params["w2"][0, 0] = np.nan
        with pytest.raises(TrainingDivergedError) as err:
            trainer.train(dataset, policy, quick_config())
        assert err.value.step == 1
        assert len(err.value.pair_ids) > 0

    def test_checkpoint_schedule(self):
        _, dataset, policy = small_setup()
        result = trainer.train(
            dataset, policy, quick_config(steps=25, checkpoint_every=10)
        )
        assert [step for step, _ in result.checkpoints] == [10, 20, 25]

    def test_weighted_loss_needs_scores(self):
        vocab, dataset, policy = small_setup()
        cfg = quick_config()
        cfg.loss = losses.LossConfig(
            method="adpo", family="static", k=1, beta=1.0, weighted=True
        )
        with pytest.raises(ValidationError):
            trainer.train(dataset, policy, cfg)
        D.attach_scores(dataset, vocab, seed=0)
        result = trainer.train(dataset, policy, cfg)
        assert result.log[-1].loss < result.log[0].loss


class TestSgd:
    def test_update_is_p_minus_lr_g_bitwise(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(5)}
        grads = {name: rng.standard_normal(p.shape) for name, p in params.items()}
        want = {name: p - 0.3 * grads[name] for name, p in params.items()}
        trainer.SgdOptimizer(0.3).update(params, grads)
        for name in params:
            assert np.array_equal(params[name], want[name])

    def test_short_run_lowers_loss_and_reruns_identically(self):
        runs = []
        for _ in range(2):
            _, dataset, policy = small_setup()
            runs.append(trainer.train(dataset, policy, quick_config(optimizer="sgd", lr=0.5)))
        first, second = runs
        assert first.log[-1].loss < first.log[0].loss
        first_csv, second_csv = (trainer.to_csv(trainer.TrainLogRow, r.log) for r in runs)
        assert first_csv == second_csv
        for name, value in first.policy.params.items():
            assert np.array_equal(value, second.policy.params[name])


class TestEvalPairs:
    def test_identity_policy_metrics(self):
        _, dataset, policy = small_setup()
        ref = lm.clone_frozen(policy)
        cfg = losses.LossConfig(method="adpo", family="adaptive", m=3, beta=1.0)
        row = trainer.eval_pairs(policy, ref, dataset, cfg)
        assert row.margin == 0.0
        assert row.accuracy == 0.5
        # every pair contributes one ln 2 per kept segment
        expected = 0.0
        for pair in dataset:
            seg = segment_pair((len(pair.chosen), len(pair.rejected)), "adaptive", 3)
            kept = sum(b > a or d > c for (a, b), (c, d) in zip(seg.w_bounds, seg.l_bounds))
            expected += kept * math.log(2)
        expected /= len(dataset)
        assert row.loss == pytest.approx(expected, abs=1e-12)

    def test_chosen_logp_matches_seq_logprob_mean(self):
        _, dataset, policy = small_setup()
        ref = lm.clone_frozen(policy)
        row = trainer.eval_pairs(policy, ref, dataset, losses.LossConfig(method="dpo"))
        direct = float(
            np.mean([lm.seq_logprob(policy, p.prompt, p.chosen) for p in dataset])
        )
        assert row.chosen_logp == pytest.approx(direct, abs=1e-12)

    def test_accuracy_one_iff_all_margins_positive(self):
        _, dataset, policy = small_setup()
        result = trainer.train(dataset, policy, quick_config(steps=300, lr=1e-2))
        ref = lm.clone_frozen(lm.NeuralPolicy.init(
            lm.Vocab(12), child_rng(0, "init"), context=6, embed_dim=4, hidden_dim=12
        ))
        row = trainer.eval_pairs(result.policy, ref, dataset, losses.LossConfig(method="dpo"))
        if row.accuracy == 1.0:
            assert all(
                lm.seq_logprob(result.policy, p.prompt, p.chosen)
                - lm.seq_logprob(ref, p.prompt, p.chosen)
                - lm.seq_logprob(result.policy, p.prompt, p.rejected)
                + lm.seq_logprob(ref, p.prompt, p.rejected)
                > 0
                for p in dataset
            )

    def test_margin_decomposition_identity(self):
        # per-pair sum of implicit-reward differences equals the scaled
        # total log-ratio difference
        _, dataset, policy = small_setup()
        result = trainer.train(dataset, policy, quick_config(steps=100, lr=1e-2))
        ref = lm.NeuralPolicy.init(
            lm.Vocab(12), child_rng(0, "init"), context=6, embed_dim=4, hidden_dim=12
        )
        beta = 1.7
        for pair in dataset[:8]:
            lw = lm.token_logprobs(result.policy, pair.prompt, pair.chosen) - lm.token_logprobs(
                ref, pair.prompt, pair.chosen
            )
            ll = lm.token_logprobs(result.policy, pair.prompt, pair.rejected) - lm.token_logprobs(
                ref, pair.prompt, pair.rejected
            )
            g = ad.Graph()
            pair_ratios = losses.PairLogRatios(g.leaf(lw), g.leaf(ll))
            batch = losses.LogRatioBatch([pair_ratios], beta=beta)
            (r_w, r_l), = losses.implicit_rewards(batch)
            total = float(np.sum(r_w) - np.sum(r_l))
            logit = beta * (float(np.sum(lw)) - float(np.sum(ll)))
            assert abs(total - logit) <= 1e-9


class TestPrefixRewardProfile:
    def test_identity_policy_flat_profile(self):
        _, dataset, policy = small_setup()
        ref = lm.clone_frozen(policy)
        rows = trainer.prefix_reward_profile([(0, policy)], ref, dataset, beta=1.0, bins=10)
        assert rows
        for row in rows:
            assert row.variance == 0.0 and row.margin == 0.0

    def test_single_bin_collapses_to_global(self):
        _, dataset, policy = small_setup()
        result = trainer.train(dataset, policy, quick_config(steps=60, lr=1e-2))
        ref = lm.NeuralPolicy.init(
            lm.Vocab(12), child_rng(0, "init"), context=6, embed_dim=4, hidden_dim=12
        )
        beta = 1.0
        rows = trainer.prefix_reward_profile(
            [(60, result.policy)], ref, dataset, beta=beta, bins=1
        )
        assert len(rows) == 1
        all_rewards, margin_sum = [], 0.0
        for pair in dataset:
            r_w = beta * (
                lm.token_logprobs(result.policy, pair.prompt, pair.chosen)
                - lm.token_logprobs(ref, pair.prompt, pair.chosen)
            )
            r_l = beta * (
                lm.token_logprobs(result.policy, pair.prompt, pair.rejected)
                - lm.token_logprobs(ref, pair.prompt, pair.rejected)
            )
            all_rewards.extend(r_w.tolist())
            all_rewards.extend(r_l.tolist())
            margin_sum += float(np.sum(r_w) - np.sum(r_l))
        assert rows[0].variance == pytest.approx(float(np.var(all_rewards)), abs=1e-9)
        assert rows[0].margin == pytest.approx(margin_sum / len(dataset), abs=1e-9)

    def test_empty_bins_absent(self):
        # length-4 responses only occupy 4 of 20 normalized-position bins
        _, dataset, policy = small_setup(min_len=4, max_len=4)
        ref = lm.clone_frozen(policy)
        rows = trainer.prefix_reward_profile([(0, policy)], ref, dataset, beta=1.0, bins=20)
        assert 0 < len(rows) < 20

    @pytest.mark.parametrize("bins", [1, 3, 7, 20])
    def test_matches_per_token_loop(self, bins):
        _, dataset, policy = small_setup(min_len=2, max_len=13)
        assert any(len(p.chosen) != len(p.rejected) for p in dataset)
        ref = lm.clone_frozen(policy)
        checkpoints = [
            (step, lm.NeuralPolicy.init(
                lm.Vocab(12), child_rng(step, "init"), context=6, embed_dim=4, hidden_dim=12
            ))
            for step in (3, 9)
        ]
        got = trainer.prefix_reward_profile(checkpoints, ref, dataset, beta=0.7, bins=bins)
        want = profile_by_token_loop(checkpoints, ref, dataset, beta=0.7, bins=bins)
        assert trainer.to_csv(trainer.ProfileRow, got) == trainer.to_csv(trainer.ProfileRow, want)

    def test_huge_bin_count_costs_tokens_not_bins(self):
        # 10**12 bins: one row per distinct i/n, and no array of 10**12 entries
        _, dataset, policy = small_setup(min_len=2, max_len=13)
        ref = lm.clone_frozen(policy)
        bins = 10**12
        rows = trainer.prefix_reward_profile([(0, policy)], ref, dataset, beta=1.0, bins=bins)
        ratios = {
            Fraction(i, len(side))
            for p in dataset for side in (p.chosen, p.rejected) for i in range(1, len(side) + 1)
        }
        assert len(rows) == len(ratios)
        assert [r.bin_lo for r in rows] == sorted(
            min(q.numerator * bins // q.denominator, bins - 1) / bins for q in ratios
        )
        with pytest.raises(ValidationError, match="overflows int64"):
            trainer.prefix_reward_profile([(0, policy)], ref, dataset, beta=1.0, bins=2**62)

    def test_requires_checkpoints_and_valid_bins(self):
        _, dataset, policy = small_setup()
        ref = lm.clone_frozen(policy)
        with pytest.raises(ValidationError):
            trainer.prefix_reward_profile([], ref, dataset, beta=1.0)
        with pytest.raises(ValidationError):
            trainer.prefix_reward_profile([(0, policy)], ref, dataset, beta=1.0, bins=0)
        with pytest.raises(ValidationError):
            trainer.prefix_reward_profile([(0, policy)], ref, dataset, beta=math.nan)
        with pytest.raises(ValidationError):
            trainer.prefix_reward_profile([(0, policy)], ref, [], beta=1.0)


class TestWholeStackMemory:
    """Eval and the profile score the stack block by block: their traced peak
    is bounded by a block's graph, not by one graph over every token."""

    LIMIT = 64 * 2**20

    @pytest.fixture(scope="class")
    def setup(self):
        vocab = lm.Vocab(12)
        task = D.BigramMatchTask(vocab=vocab, max_len=64, seed=0)
        dataset = D.generate_dataset(task, 1024)
        policies = [
            lm.NeuralPolicy.init(vocab, child_rng(i, "init"), context=26, embed_dim=8,
                                 hidden_dim=48)
            for i in range(3)
        ]
        return dataset, lm.clone_frozen(policies[0]), policies[1:]

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_eval_pairs_peak(self, setup):
        dataset, ref, policies = setup
        cfg = losses.LossConfig(method="adpo", family="static", k=1)
        peak = self.traced_peak(lambda: trainer.eval_pairs(policies[0], ref, dataset, cfg))
        assert peak <= self.LIMIT

    def test_two_checkpoint_profile_peak(self, setup):
        dataset, ref, policies = setup
        checkpoints = list(enumerate(policies, start=1))
        peak = self.traced_peak(
            lambda: trainer.prefix_reward_profile(checkpoints, ref, dataset, beta=1.0)
        )
        assert peak <= self.LIMIT


def profile_by_token_loop(checkpoints, ref, dataset, beta, bins):
    """The profile binned one token at a time, over the same log-ratios."""
    plan = trainer.plan_dataset(dataset, losses.LossConfig(method="dpo", beta=beta), ref)
    rows = []
    for step, policy in checkpoints:
        _, log_ratios, _ = plan.log_ratios(policy, ad.Graph())
        offsets = plan.offsets
        bucket_rewards = [[] for _ in range(bins)]
        bucket_margin = np.zeros(bins)
        for side in range(len(offsets) - 1):
            sign = 1.0 if side % 2 == 0 else -1.0
            values = beta * log_ratios.value[offsets[side] : offsets[side + 1]]
            n = values.shape[0]
            for i, r in enumerate(values, start=1):
                b = min(i * bins // n, bins - 1)
                bucket_rewards[b].append(float(r))
                bucket_margin[b] += sign * float(r)
        for b in range(bins):
            if bucket_rewards[b]:
                rows.append(trainer.ProfileRow(
                    step, b / bins, (b + 1) / bins,
                    float(np.var(np.asarray(bucket_rewards[b]))),
                    float(bucket_margin[b] / len(dataset)),
                ))
    return rows


class TestCsv:
    def test_trainlog_header_and_shape(self):
        _, dataset, policy = small_setup()
        result = trainer.train(dataset, policy, quick_config(steps=20))
        text = trainer.to_csv(trainer.TrainLogRow, result.log)
        lines = text.strip().split("\n")
        assert lines[0] == "step,loss,chosen_logp,rejected_logp,margin,accuracy"
        assert len(lines) == 1 + len(result.log)

    def test_trainlog_rows_monotone_and_finite(self):
        _, dataset, policy = small_setup()
        result = trainer.train(dataset, policy, quick_config(steps=20))
        steps = [row.step for row in result.log]
        assert steps == sorted(set(steps))
        for row in result.log:
            for value in (row.loss, row.chosen_logp, row.rejected_logp, row.margin, row.accuracy):
                assert np.isfinite(value)

    def test_profile_header(self):
        _, dataset, policy = small_setup()
        ref = lm.clone_frozen(policy)
        rows = trainer.prefix_reward_profile([(5, policy)], ref, dataset, beta=1.0, bins=4)
        text = trainer.to_csv(trainer.ProfileRow, rows)
        assert text.startswith("checkpoint,bin_lo,bin_hi,variance,margin\n")


@pytest.mark.slow
class TestLossDecreaseSmoke:
    """Default-task smoke property: final logged loss strictly below the
    initial one for every method and seeds 0-4."""

    METHODS = {
        "dpo": losses.LossConfig(method="dpo", beta=1.0),
        "adpo_k1": losses.LossConfig(method="adpo", family="static", k=1, beta=1.0),
        "adpo_m16": losses.LossConfig(method="adpo", family="adaptive", m=16, beta=1.0),
        "cadpo": losses.LossConfig(
            method="adpo", family="static", k=1, beta=1.0, weighted=True
        ),
    }

    @pytest.mark.parametrize("method", list(METHODS))
    @pytest.mark.parametrize("seed", range(5))
    def test_loss_at_2000_below_step_zero(self, method, seed):
        vocab = lm.Vocab(12)
        task = D.BigramMatchTask(vocab=vocab, seed=seed)
        dataset = D.generate_dataset(task, 64)
        if method == "cadpo":
            D.attach_scores(dataset, vocab, seed=seed)
        policy = lm.NeuralPolicy.init(vocab, child_rng(seed, "init"))
        cfg = trainer.TrainConfig(
            loss=self.METHODS[method],
            steps=2000,
            batch_size=32,
            seed=seed,
            eval_every=2000,
            checkpoint_every=0,
        )
        result = trainer.train(dataset, policy, cfg)
        assert result.log[-1].step == 2000
        assert result.log[-1].loss < result.log[0].loss
