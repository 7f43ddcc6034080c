"""Unit tests for the preference losses."""

import copy
import math

import numpy as np
import pytest

from preflab import autodiff as ad
from preflab import data, lm, losses, trainer
from preflab.errors import ValidationError
from preflab.losses import segment_pair
from preflab.seeds import child_rng

from helpers import grad_check, reference_dpo, segment_bounds


def make_pair(graph, chosen, rejected):
    return losses.PairLogRatios(
        chosen=graph.leaf(np.asarray(chosen, dtype=np.float64)),
        rejected=graph.leaf(np.asarray(rejected, dtype=np.float64)),
    )


def random_batch(graph, rng, n_pairs, beta=1.0, max_len=12, scale=1.0):
    pairs = []
    for _ in range(n_pairs):
        lw = int(rng.integers(1, max_len + 1))
        ll = int(rng.integers(1, max_len + 1))
        pairs.append(
            make_pair(graph, scale * rng.standard_normal(lw), scale * rng.standard_normal(ll))
        )
    return losses.LogRatioBatch(pairs=pairs, beta=beta)


def sides(batch):
    """The (chosen, rejected) log-ratio arrays of every pair of ``batch``."""
    return [(p.chosen.value, p.rejected.value) for p in batch.pairs]


def segment_sums(values, bounds):
    """Per-segment sums of one side vector, in numpy: one ``np.bincount`` in
    position order, as the loss node takes them."""
    sizes = [stop - start for start, stop in bounds]
    ids = np.repeat(np.arange(len(bounds)), sizes)
    return np.bincount(ids, weights=np.asarray(values, dtype=np.float64), minlength=len(bounds))


class TestSegmentLogRatio:
    def test_zero_log_ratios_give_zero(self):
        assert segment_sums(np.zeros(5), [(0, 1), (1, 4), (4, 5)])[1] == 0.0

    def test_single_token_segment(self):
        values = [0.3, -1.2, 0.9]
        sums = segment_sums(values, [(0, 1), (1, 2), (2, 3)])
        assert sums[1] == -1.2
        # the loss node's segments under static k = 1 are these sums
        g = ad.Graph()
        batch = losses.LogRatioBatch([make_pair(g, values, np.zeros(3))], beta=1.0)
        out = losses.adpo_loss(batch, [segment_pair((3, 3), "static", 1)])
        assert out.value.tobytes() == (np.sum(ad.log_sigmoid_values(sums)) * -1.0).tobytes()


class TestDpoLoss:
    def test_zero_log_ratios_give_log_two(self):
        g = ad.Graph()
        batch = losses.LogRatioBatch([make_pair(g, [0.0, 0.0], [0.0, 0.0, 0.0])], beta=1.0)
        assert float(losses.dpo_loss(batch).value) == pytest.approx(math.log(2), abs=1e-15)

    def test_cancellation_inside_sigmoid(self):
        g = ad.Graph()
        batch = losses.LogRatioBatch([make_pair(g, [1.0, 0.0], [0.0, 1.0])], beta=1.0)
        assert float(losses.dpo_loss(batch).value) == pytest.approx(math.log(2), abs=1e-15)

    def test_beta_scales_like_doubled_ratios(self):
        rng = np.random.default_rng(0)
        chosen, rejected = rng.standard_normal(4), rng.standard_normal(6)
        g = ad.Graph()
        doubled_beta = losses.dpo_loss(
            losses.LogRatioBatch([make_pair(g, chosen, rejected)], beta=1.0)
        )
        doubled_ratios = losses.dpo_loss(
            losses.LogRatioBatch([make_pair(g, 2 * chosen, 2 * rejected)], beta=0.5)
        )
        assert abs(float(doubled_beta.value) - float(doubled_ratios.value)) <= 1e-12


class TestAdpoLoss:
    def test_reduces_to_dpo_with_one_adaptive_segment(self):
        rng = np.random.default_rng(1)
        for beta in (0.5, 1.0, 1.5):
            g = ad.Graph()
            batch = random_batch(g, rng, 16, beta=beta, max_len=64)
            segs = [
                segment_pair(
                    (p.chosen.value.shape[0], p.rejected.value.shape[0]), "adaptive", 1
                )
                for p in batch.pairs
            ]
            a = float(losses.adpo_loss(batch, segs).value)
            d = float(losses.dpo_loss(batch).value)
            want = reference_dpo(sides(batch), beta)
            assert abs(a - want) <= 1e-12 and abs(d - want) <= 1e-12

    def test_token_level_hand_value(self):
        g = ad.Graph()
        batch = losses.LogRatioBatch([make_pair(g, [1.0, 0.0], [0.0, 1.0])], beta=1.0)
        seg = segment_pair((2, 2), "static", 1)
        out = float(losses.adpo_loss(batch, [seg]).value)
        # -(log sigma(1) + log sigma(-1)); strictly above the DPO value ln 2
        assert out == pytest.approx(1.6265233750364456, abs=1e-12)
        assert out > math.log(2)

    def test_all_zero_ratios_give_segments_times_log_two(self):
        g = ad.Graph()
        batch = losses.LogRatioBatch([make_pair(g, np.zeros(6), np.zeros(6))], beta=1.0)
        seg = segment_pair((6, 6), "adaptive", 3)
        assert float(losses.adpo_loss(batch, [seg]).value) == pytest.approx(
            3 * math.log(2), abs=1e-14
        )

    def test_static_collapse_to_dpo_on_unequal_lengths(self):
        rng = np.random.default_rng(2)
        g = ad.Graph()
        batch = random_batch(g, rng, 8, beta=1.5, max_len=20)
        segs = [
            segment_pair((p.chosen.value.shape[0], p.rejected.value.shape[0]), "static", 4096)
            for p in batch.pairs
        ]
        a = float(losses.adpo_loss(batch, segs).value)
        assert abs(a - reference_dpo(sides(batch), batch.beta)) <= 1e-12

    def test_swap_antisymmetry_of_segment_logits(self):
        rng = np.random.default_rng(3)
        chosen, rejected = rng.standard_normal(6), rng.standard_normal(9)
        beta = 1.3
        seg = segment_pair((6, 9), "adaptive", 4)
        swapped = segment_pair((9, 6), "adaptive", 4)
        (w_bounds, l_bounds), (w_bounds2, l_bounds2) = map(segment_bounds, (seg, swapped))
        s_w = segment_sums(chosen, w_bounds)
        s_l = segment_sums(rejected, l_bounds)
        s_w2 = segment_sums(rejected, w_bounds2)
        s_l2 = segment_sums(chosen, l_bounds2)
        forward = beta * (s_w - s_l)
        backward = beta * (s_w2 - s_l2)
        assert np.allclose(forward, -backward, atol=1e-15)

    def test_probability_form_in_unit_interval(self):
        rng = np.random.default_rng(4)
        g = ad.Graph()
        chosen, rejected = rng.standard_normal(8), rng.standard_normal(8)
        batch = losses.LogRatioBatch([make_pair(g, chosen, rejected)], beta=1.0)
        seg = segment_pair((8, 8), "static", 2)
        loss = float(losses.adpo_loss(batch, [seg]).value)
        prob = math.exp(-loss)
        expected = 1.0
        for (ws, we), (ls, le) in zip(*segment_bounds(seg)):
            delta = np.sum(chosen[ws:we]) - np.sum(rejected[ls:le])
            expected *= float(ad.sigmoid_values(delta))
        assert 0.0 < prob < 1.0
        assert prob == pytest.approx(expected, rel=1e-12)

    def test_gradient_signs_strict(self):
        rng = np.random.default_rng(5)
        for family, param in (("adaptive", 3), ("static", 2)):
            g = ad.Graph()
            pair = make_pair(g, rng.standard_normal(5), rng.standard_normal(8))
            batch = losses.LogRatioBatch([pair], beta=1.0)
            out = losses.adpo_loss(batch, [segment_pair((5, 8), family, param)])
            g.backward(out)
            assert np.all(pair.chosen.grad < 0)
            assert np.all(pair.rejected.grad > 0)

    def test_segmentation_mismatch_rejected(self):
        g = ad.Graph()
        batch = losses.LogRatioBatch([make_pair(g, [0.1, 0.2], [0.3])], beta=1.0)
        seg = segment_pair((5, 5), "adaptive", 2)
        with pytest.raises(ValidationError, match=r"pair 0: .* \(5, 5\) .* \(2, 1\)"):
            losses.adpo_loss(batch, [seg])
        with pytest.raises(ValidationError):
            losses.adpo_loss(batch, [])
        two = [segment_pair((2, 1), "adaptive", 2)] * 2
        with pytest.raises(ValidationError, match="2 segmented pairs for 1 pairs"):
            losses.batch_loss(batch, losses.segment_layout(two))


class TestCadpoLoss:
    def test_zero_scores_reproduce_adpo_exactly(self):
        rng = np.random.default_rng(6)
        g = ad.Graph()
        batch = random_batch(g, rng, 8, beta=1.0)
        segs, scores = [], []
        for p in batch.pairs:
            lw, ll = p.chosen.value.shape[0], p.rejected.value.shape[0]
            segs.append(segment_pair((lw, ll), "adaptive", 2))
            scores.append(np.zeros(ll))
        a = float(losses.adpo_loss(batch, segs).value)
        c = float(losses.cadpo_loss(batch, segs, scores).value)
        assert abs(a - c) <= 1e-12

    def test_unit_scores_drop_rejected_side(self):
        rng = np.random.default_rng(7)
        g = ad.Graph()
        batch = random_batch(g, rng, 8, beta=1.5)
        segs, ones = [], []
        for p in batch.pairs:
            lw, ll = p.chosen.value.shape[0], p.rejected.value.shape[0]
            segs.append(segment_pair((lw, ll), "adaptive", 2))
            ones.append(np.ones(ll))
        c = float(losses.cadpo_loss(batch, segs, ones).value)
        expected = 0.0
        for p, seg in zip(batch.pairs, segs):
            s_w = np.array([np.sum(p.chosen.value[a:b]) for a, b in segment_bounds(seg)[0]])
            expected += float(np.sum(-ad.log_sigmoid_values(batch.beta * s_w)))
        expected /= len(batch.pairs)
        assert abs(c - expected) <= 1e-12

    def test_hand_computed_weighted_value(self):
        g = ad.Graph()
        pair = make_pair(g, [0.4], [0.6])
        batch = losses.LogRatioBatch([pair], beta=1.0)
        seg = segment_pair((1, 1), "adaptive", 1)
        out = float(losses.cadpo_loss(batch, [seg], [np.array([0.5])]).value)
        # -log sigma(0.4 - 0.5 * 0.6) = -log sigma(0.1) = log(1 + e^-0.1)
        assert out == pytest.approx(0.6443966600735709, abs=1e-12)

    def test_score_validation(self):
        g = ad.Graph()
        pair = make_pair(g, [0.4, 0.1], [0.6, 0.2])
        batch = losses.LogRatioBatch([pair], beta=1.0)
        seg = [segment_pair((2, 2), "adaptive", 1)]
        with pytest.raises(ValidationError):
            losses.cadpo_loss(batch, seg, [np.array([0.5])])
        with pytest.raises(ValidationError):
            losses.cadpo_loss(batch, seg, [np.array([0.5, 1.5])])
        with pytest.raises(ValidationError, match="nan"):
            losses.cadpo_loss(batch, seg, [np.array([0.5, np.nan])])
        with pytest.raises(ValidationError):
            losses.cadpo_loss(batch, seg, None)
        with pytest.raises(ValidationError, match="requires rejected scores"):
            losses.cadpo_loss(batch, seg, [None])
        with pytest.raises(ValidationError, match="2 score vectors for 1 pairs"):
            losses.cadpo_loss(batch, seg, [np.zeros(2)] * 2)


class TestImplicitRewards:
    """Per-token implicit rewards are beta times the plan's untracked
    log-ratios, side by side; token_logprobs differences are the reference."""

    @staticmethod
    def setup(perturb=True, cfg=None):
        vocab = lm.Vocab(12)
        dataset = data.generate_dataset(data.BigramMatchTask(vocab=vocab, seed=3), 6)
        policy = lm.NeuralPolicy.init(vocab, child_rng(3, "init"), context=6, embed_dim=4,
                                      hidden_dim=12)
        ref = copy.deepcopy(policy)
        if perturb:
            rng = np.random.default_rng(8)
            for param in policy.params.values():
                param += 0.3 * rng.standard_normal(param.shape)
        plan = trainer.plan_dataset(dataset, cfg, ref)
        _, log_ratios = plan.log_ratios(policy)
        sides = np.split(log_ratios, plan.offsets[1:-1])
        return dataset, policy, ref, list(zip(sides[0::2], sides[1::2]))

    def test_zero_for_identical_policies(self):
        _, _, _, pairs = self.setup(perturb=False)
        for chosen, rejected in pairs:
            assert np.all(2.0 * chosen == 0.0) and np.all(2.0 * rejected == 0.0)

    def test_sum_matches_dpo_logit(self):
        dataset, policy, ref, pairs = self.setup()
        beta = 1.5
        for pair, (chosen, rejected) in zip(dataset, pairs):
            r_w, r_l = beta * chosen, beta * rejected
            lw, ll = (
                lm.token_logprobs(policy, pair.prompt, side)
                - lm.token_logprobs(ref, pair.prompt, side)
                for side in (pair.chosen, pair.rejected)
            )
            assert r_w.shape == lw.shape and r_l.shape == ll.shape
            logit = beta * (float(np.sum(lw)) - float(np.sum(ll)))
            assert float(np.sum(r_w) - np.sum(r_l)) == pytest.approx(logit, abs=1e-9)

    def test_linear_in_beta(self):
        # the plan's log-ratios do not depend on the planned loss's beta
        (_, _, _, one), (_, _, _, two) = (
            self.setup(cfg=losses.LossConfig(method="dpo", beta=beta)) for beta in (1.0, 2.0)
        )
        for (chosen_1, rejected_1), (chosen_2, rejected_2) in zip(one, two):
            assert np.allclose(2 * (1.0 * chosen_1), 2.0 * chosen_2, atol=1e-15)
            assert np.allclose(2 * (1.0 * rejected_1), 2.0 * rejected_2, atol=1e-15)


class TestLossGradients:
    def test_grad_check_all_losses(self):
        rng = np.random.default_rng(10)
        lw, ll = 5, 7
        seg_static = segment_pair((lw, ll), "static", 2)
        seg_adaptive = segment_pair((lw, ll), "adaptive", 3)
        scores = rng.uniform(0, 1, size=ll)

        def dpo_build(graph, leaves):
            pair = losses.PairLogRatios(leaves[0], leaves[1])
            return losses.dpo_loss(losses.LogRatioBatch([pair], beta=1.0))

        def adpo_build(graph, leaves):
            pair = losses.PairLogRatios(leaves[0], leaves[1])
            return losses.adpo_loss(
                losses.LogRatioBatch([pair], beta=1.0), [seg_adaptive]
            )

        def adpo_static_build(graph, leaves):
            pair = losses.PairLogRatios(leaves[0], leaves[1])
            return losses.adpo_loss(
                losses.LogRatioBatch([pair], beta=1.0), [seg_static]
            )

        def cadpo_build(graph, leaves):
            pair = losses.PairLogRatios(leaves[0], leaves[1])
            return losses.cadpo_loss(
                losses.LogRatioBatch([pair], beta=1.0), [seg_adaptive], [scores]
            )

        params = [rng.standard_normal(lw), rng.standard_normal(ll)]
        for build in (dpo_build, adpo_build, adpo_static_build, cadpo_build):
            report = grad_check(build, params, h=1e-5, tol=1e-6)
            assert report.passed, report

    def test_grad_check_two_pair_batch(self):
        rng = np.random.default_rng(11)
        lens = [(4, 6), (7, 3)]
        segs = [segment_pair(pair, "adaptive", 2) for pair in lens]

        def build(graph, leaves):
            pairs = [losses.PairLogRatios(leaves[2 * i], leaves[2 * i + 1]) for i in range(2)]
            return losses.adpo_loss(losses.LogRatioBatch(pairs, beta=1.0), segs)

        params = []
        for lw, ll in lens:
            params.extend([rng.standard_normal(lw), rng.standard_normal(ll)])
        report = grad_check(build, params, h=1e-5, tol=1e-6)
        assert report.max_rel_error < 1e-6


class TestNonFiniteBeta:
    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0])
    def test_loss_config_rejects(self, beta):
        with pytest.raises(ValidationError, match="finite and positive"):
            losses.LossConfig(method="dpo", beta=beta).validate()

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_batch_rejects(self, beta):
        g = ad.Graph()
        batch = losses.LogRatioBatch([make_pair(g, [0.1], [0.2])], beta=beta)
        with pytest.raises(ValidationError, match="finite and positive"):
            losses.dpo_loss(batch)


    @pytest.mark.parametrize("beta", [math.nan, -math.inf, -1.0, 0])
    def test_every_site_keeps_its_message(self, beta):
        # one check, four callers; each message reads as before
        from preflab import oracle

        space = oracle.EnumSpace.build(3, 2)
        zeros = np.zeros(len(space.sequences))
        one_pair = losses.segment_layout([segment_pair((1, 1), "static", 1)])
        sites = {
            "loss.beta": lambda: losses.LossConfig(beta=beta).validate(),
            "beta": lambda: losses.segment_loss(np.zeros(2), one_pair, beta),
            "oracle": lambda: oracle.boltzmann_distribution(space, zeros, zeros, beta),
            "profile": lambda: trainer.prefix_reward_profile([(0, None)], None, [], beta),
        }
        for name, call in sites.items():
            with pytest.raises(ValidationError) as info:
                call()
            lead = "loss.beta" if name == "loss.beta" else "beta"
            assert str(info.value) == f"{lead} must be finite and positive, got {beta}"


class TestSingleLossNode:
    CONFIGS = {
        "dpo": losses.LossConfig(method="dpo"),
        "static": losses.LossConfig(method="adpo", family="static", k=2),
        "adaptive": losses.LossConfig(method="adpo", family="adaptive", m=3),
        "cadpo": losses.LossConfig(method="adpo", family="static", k=1, weighted=True),
    }

    @staticmethod
    def nodes_added(cfg, n_pairs):
        rng = np.random.default_rng(12)
        g = ad.Graph()
        pairs, segs, scores = [], [], []
        for _ in range(n_pairs):
            lw, ll = (int(x) for x in rng.integers(1, 12, size=2))
            pairs.append(make_pair(g, rng.standard_normal(lw), rng.standard_normal(ll)))
            scores.append(rng.uniform(0, 1, size=ll))
            segs.append(segment_pair((lw, ll), *cfg.segment_rule()))
        batch = losses.LogRatioBatch(pairs, beta=1.0)
        layout = losses.segment_layout(segs, scores if cfg.weighted else None)
        before = len(g)
        losses.batch_loss(batch, layout)
        return len(g) - before

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_node_count_independent_of_batch_size(self, name):
        cfg = self.CONFIGS[name].validate()
        assert self.nodes_added(cfg, 1) == self.nodes_added(cfg, 32) == 1


def five_node_reference(sides, layout, beta):
    """Value, segment sums z and per-side gradients of the loss as the five
    generic nodes it replaced computed them, in numpy: a weighted segment
    sum over the stacked sides, times beta, log-sigmoid, sum, times -1/B.
    The backward replays their gradients in reverse, each node's added into
    a zero buffer."""
    values = np.concatenate(sides)
    n_pairs, n_segments = len(layout.kept), int(layout.kept.sum())
    before = np.cumsum(layout.kept) - layout.kept
    ids = layout.ranks + np.repeat(before, layout.lengths[0::2] + layout.lengths[1::2])
    z = np.bincount(ids, weights=layout.weights * values, minlength=n_segments)
    scaled = z * np.float64(beta)
    value = np.sum(ad.log_sigmoid_values(scaled)) * np.float64(-1.0 / n_pairs)
    g_total = np.zeros(()) + np.ones(()) * (-1.0 / n_pairs)
    g_log_sigmoid = np.zeros(n_segments) + g_total
    g_scaled = np.zeros(n_segments) + g_log_sigmoid * ad.sigmoid_values(-scaled)
    g_z = np.zeros(n_segments) + g_scaled * beta
    per_position = g_z[ids] * layout.weights
    stops = np.cumsum(layout.lengths)
    grads = [np.zeros(n) + per_position[stop - n : stop] for stop, n in zip(stops, layout.lengths)]
    return value, z, grads


class TestFusedLossNode:
    """``batch_loss`` is one node with the closed-form gradient; its value
    and the gradient it leaves in every side equal the five-node chain's,
    byte for byte, on sides sliced from one stacked leaf as the trainer's
    are."""

    CONFIGS = {
        "dpo": ("adaptive", 1, False),
        "static1": ("static", 1, False),
        "static2": ("static", 2, False),
        "adaptive3": ("adaptive", 3, False),
        "cadpo": ("static", 1, True),
    }

    @pytest.mark.parametrize("n_pairs", [1, 7, 32])
    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_bitwise_equal_to_five_node_chain(self, name, n_pairs):
        family, param, weighted = self.CONFIGS[name]
        rng = np.random.default_rng(14)
        for beta in (0.5, 1.0, 1.5):
            lengths = rng.integers(1, 25, size=2 * n_pairs)
            segs = [segment_pair((int(lw), int(ll)), family, param)
                    for lw, ll in zip(lengths[0::2], lengths[1::2])]
            scores = None
            if weighted:
                scores = [rng.uniform(0.0, 1.0, size=ll) for ll in lengths[1::2]]
                scores[0][0] = 1.0  # a dropped token: weight -(1 - 1) = -0.0
            layout = losses.segment_layout(segs, scores)
            values = rng.standard_normal(int(lengths.sum()))
            _, z, _ = five_node_reference([values], layout, beta)
            # unit-scale draws, then the same draws rescaled so the largest
            # |beta * z| is 800, where sigmoid(-|beta * z|) underflows to 0
            for values in (values, values * (800.0 / np.max(np.abs(beta * z)))):
                g = ad.Graph()
                stacked = g.leaf(values)
                offsets = np.concatenate(([0], np.cumsum(lengths)))
                sides = [ad.slice1d(stacked, a, b) for a, b in zip(offsets[:-1], offsets[1:])]
                pairs = [losses.PairLogRatios(w, l) for w, l in zip(sides[0::2], sides[1::2])]
                out = losses.batch_loss(losses.LogRatioBatch(pairs, beta=beta), layout)
                g.backward(out)
                want, z, grads = five_node_reference([values], layout, beta)
                assert out.value.tobytes() == want.tobytes()
                for side, grad in zip(sides, grads):
                    assert side.grad.tobytes() == grad.tobytes()
                assert stacked.grad.tobytes() == np.concatenate(grads).tobytes()
            assert np.max(np.abs(beta * z)) >= 799.0
            assert np.any(ad.sigmoid_values(-np.abs(beta * z)) == 0.0)


def windowed_reference(chosen, rejected, k, beta, scores=None):
    """Static-window loss of one pair in plain numpy: window i covers
    positions [i*k, (i+1)*k) of each side, clipped to that side; windows
    empty on both sides are skipped."""
    weights = np.ones(len(rejected)) if scores is None else 1.0 - np.asarray(scores)
    total = 0.0
    for start in range(0, max(len(chosen), len(rejected)) + 2 * k, k):
        w = chosen[start : start + k]
        l_vals = rejected[start : start + k]
        if len(w) == 0 and len(l_vals) == 0:
            continue
        z = np.sum(w) - np.sum(weights[start : start + k] * l_vals)
        total += float(-ad.log_sigmoid_values(beta * z))
    return total


class TestStaticWindowsReference:
    """Static windows on unequal lengths against a per-window numpy loop."""

    @pytest.mark.parametrize(
        "k,weighted", [(1, False), (2, False), (3, False), (64, False), (1, True)]
    )
    def test_matches_per_window_reference(self, k, weighted):
        rng = np.random.default_rng(13)
        worst = 0.0
        for trial in range(200):
            lw = int(rng.integers(1, 40))
            ll = int(rng.integers(1, 40))
            if lw == ll:
                ll += int(rng.integers(1, 9))
            chosen, rejected = rng.standard_normal(lw), rng.standard_normal(ll)
            scores = rng.uniform(0.0, 1.0, size=ll)
            beta = (0.5, 1.0, 1.5)[trial % 3]
            g = ad.Graph()
            batch = losses.LogRatioBatch([make_pair(g, chosen, rejected)], beta=beta)
            seg = [segment_pair((lw, ll), "static", k)]
            if weighted:
                got = float(losses.cadpo_loss(batch, seg, [scores]).value)
                want = windowed_reference(chosen, rejected, k, beta, scores)
            else:
                got = float(losses.adpo_loss(batch, seg).value)
                want = windowed_reference(chosen, rejected, k, beta)
            worst = max(worst, abs(got - want))
        assert worst <= 1e-12
