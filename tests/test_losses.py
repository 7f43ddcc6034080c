"""Unit tests for the preference losses."""

import math

import numpy as np
import pytest

from preflab import autodiff as ad
from preflab import losses
from preflab.composition import segment_pair
from preflab.errors import ValidationError


def make_pair(graph, chosen, rejected, scores=None):
    return losses.PairLogRatios(
        chosen=graph.leaf(np.asarray(chosen, dtype=np.float64)),
        rejected=graph.leaf(np.asarray(rejected, dtype=np.float64)),
        rejected_scores=scores,
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


def segment_sums(graph, values, bounds):
    """Per-segment sums of one side vector through the batched segment op."""
    sizes = [stop - start for start, stop in bounds]
    ids = np.repeat(np.arange(len(bounds)), sizes)
    return ad.weighted_segment_sum([graph.leaf(values)], ids, len(bounds)).value


class TestSegmentLogRatio:
    def test_zero_log_ratios_give_zero(self):
        g = ad.Graph()
        assert segment_sums(g, np.zeros(5), [(0, 1), (1, 4), (4, 5)])[1] == 0.0

    def test_single_token_segment(self):
        g = ad.Graph()
        assert segment_sums(g, [0.3, -1.2, 0.9], [(0, 1), (1, 2), (2, 3)])[1] == -1.2


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
            assert abs(a - d) <= 1e-12

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
        d = float(losses.dpo_loss(batch).value)
        assert abs(a - d) <= 1e-12

    def test_swap_antisymmetry_of_segment_logits(self):
        rng = np.random.default_rng(3)
        chosen, rejected = rng.standard_normal(6), rng.standard_normal(9)
        beta = 1.3
        seg = segment_pair((6, 9), "adaptive", 4)
        swapped = segment_pair((9, 6), "adaptive", 4)
        g = ad.Graph()
        s_w = segment_sums(g, chosen, seg.w_bounds)
        s_l = segment_sums(g, rejected, seg.l_bounds)
        s_w2 = segment_sums(g, rejected, swapped.w_bounds)
        s_l2 = segment_sums(g, chosen, swapped.l_bounds)
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
        for (ws, we), (ls, le) in zip(seg.w_bounds, seg.l_bounds):
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
        with pytest.raises(ValidationError):
            losses.adpo_loss(batch, [seg])
        with pytest.raises(ValidationError):
            losses.adpo_loss(batch, [])


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
            s_w = np.array([np.sum(p.chosen.value[a:b]) for a, b in seg.w_bounds])
            expected += float(np.sum(-ad.log_sigmoid_values(batch.beta * s_w)))
        expected /= len(batch.pairs)
        assert abs(c - expected) <= 1e-12

    def test_hand_computed_weighted_value(self):
        g = ad.Graph()
        pair = make_pair(g, [0.4], [0.6], scores=np.array([0.5]))
        batch = losses.LogRatioBatch([pair], beta=1.0)
        seg = segment_pair((1, 1), "adaptive", 1)
        out = float(losses.cadpo_loss(batch, [seg]).value)
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


class TestImplicitRewards:
    def test_zero_for_identical_policies(self):
        g = ad.Graph()
        batch = losses.LogRatioBatch([make_pair(g, np.zeros(4), np.zeros(5))], beta=2.0)
        rewards = losses.implicit_rewards(batch)
        assert np.all(rewards[0][0] == 0.0) and np.all(rewards[0][1] == 0.0)

    def test_sum_matches_dpo_logit(self):
        rng = np.random.default_rng(8)
        g = ad.Graph()
        beta = 1.5
        batch = random_batch(g, rng, 6, beta=beta)
        rewards = losses.implicit_rewards(batch)
        for pair, (r_w, r_l) in zip(batch.pairs, rewards):
            logit = beta * (
                float(np.sum(pair.chosen.value)) - float(np.sum(pair.rejected.value))
            )
            assert float(np.sum(r_w) - np.sum(r_l)) == pytest.approx(logit, abs=1e-9)

    def test_linear_in_beta(self):
        rng = np.random.default_rng(9)
        chosen, rejected = rng.standard_normal(4), rng.standard_normal(4)
        g = ad.Graph()
        one = losses.implicit_rewards(
            losses.LogRatioBatch([make_pair(g, chosen, rejected)], beta=1.0)
        )
        two = losses.implicit_rewards(
            losses.LogRatioBatch([make_pair(g, chosen, rejected)], beta=2.0)
        )
        assert np.allclose(2 * one[0][0], two[0][0], atol=1e-15)


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
            pair = losses.PairLogRatios(leaves[0], leaves[1], rejected_scores=scores)
            return losses.cadpo_loss(
                losses.LogRatioBatch([pair], beta=1.0), [seg_adaptive]
            )

        params = [rng.standard_normal(lw), rng.standard_normal(ll)]
        for build in (dpo_build, adpo_build, adpo_static_build, cadpo_build):
            report = ad.grad_check(build, params, h=1e-5, tol=1e-6)
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
        report = ad.grad_check(build, params, h=1e-5, tol=1e-6)
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
        pairs, segs = [], []
        for _ in range(n_pairs):
            lw, ll = (int(x) for x in rng.integers(1, 12, size=2))
            pairs.append(
                make_pair(
                    g,
                    rng.standard_normal(lw),
                    rng.standard_normal(ll),
                    scores=rng.uniform(0, 1, size=ll),
                )
            )
            # dpo is planned as the default adaptive family with m=1
            segs.append(segment_pair((lw, ll), cfg.family, cfg.segment_param() or 1))
        batch = losses.LogRatioBatch(pairs, beta=1.0)
        before = len(g)
        losses.batch_loss(batch, segs, cfg)
        return len(g) - before

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_node_count_independent_of_batch_size(self, name):
        cfg = self.CONFIGS[name].validate()
        assert self.nodes_added(cfg, 1) == self.nodes_added(cfg, 32) == 5


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
            batch = losses.LogRatioBatch(
                [make_pair(g, chosen, rejected, scores=scores)], beta=beta
            )
            seg = [segment_pair((lw, ll), "static", k)]
            if weighted:
                got = float(losses.cadpo_loss(batch, seg).value)
                want = windowed_reference(chosen, rejected, k, beta, scores)
            else:
                got = float(losses.adpo_loss(batch, seg).value)
                want = windowed_reference(chosen, rejected, k, beta)
            worst = max(worst, abs(got - want))
        assert worst <= 1e-12
