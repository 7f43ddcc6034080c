"""Unit tests for the reverse-mode autodiff core."""

import gc
import math
import weakref

import numpy as np
import pytest

from preflab import autodiff as ad
from preflab import lm, losses
from preflab.losses import segment_pair

from helpers import grad_check, scalar_root


def sum_of_squares(node):
    """sum(x ** 2) of a node as one node with a hand-derived backward
    (gradient 2x), the way lm's forwards and the loss are written."""
    v = node.value

    def backward(g):
        node.grad += 2.0 * v * g

    return ad.Node(node.graph, np.sum(v * v), backward)


def loss_node(chosen, rejected, layout, beta=1.0):
    """``losses.batch_loss`` over pairs of side nodes under a hand-written
    layout: per position a rank and a weight, per pair a kept count."""
    pairs = [losses.PairLogRatios(w, l) for w, l in zip(chosen, rejected)]
    lengths = np.array([len(side.value) for pair in zip(chosen, rejected) for side in pair])
    ranks, weights, kept = (np.asarray(a) for a in layout)
    layout = losses.SegmentLayout(ranks.astype(np.intp), weights.astype(np.float64),
                                  lengths, kept.astype(np.intp))
    return losses.batch_loss(losses.LogRatioBatch(pairs, beta=beta), layout)


class TestElementwise:
    def test_fan_out_accumulates_every_path(self):
        g = ad.Graph()
        a = g.leaf([1.5, -2.0, 7.0])
        out = ad.sub(a, a)
        assert np.all(out.value == 0.0)
        g.backward(scalar_root(out))
        # both operands are a: +1 and -1 cancel
        assert np.all(a.grad == 0.0)
        g = ad.Graph()
        b = g.leaf([1.5, -2.0, 7.0])
        g.backward(scalar_root(ad.sub(b, ad.sub(np.zeros(3), b))))
        # +1 through the outer sub, -(-1) through the inner one
        assert np.all(b.grad == 2.0)

    def test_sub_grad_signs(self):
        g = ad.Graph()
        a, b = g.leaf([2.0, 3.0]), g.leaf([5.0, 7.0])
        g.backward(scalar_root(ad.sub(a, b)))
        assert np.all(a.grad == 1.0) and np.all(b.grad == -1.0)

    def test_scalar_broadcast(self):
        # nothing broadcasts: a scalar against a vector is a shape mismatch
        g = ad.Graph()
        a, s = g.leaf([1.0, 2.0, 3.0]), g.leaf(2.0)
        for x, y in ((a, s), (s, a), (a, 2.0)):
            with pytest.raises(ad.ShapeMismatchError, match=r"\(3,\) and \(\)|\(\) and \(3,\)"):
                ad.sub(x, y)

    def test_shape_mismatch_names_both_shapes(self):
        g = ad.Graph()
        a, b = g.leaf([1.0, 2.0]), g.leaf([1.0, 2.0, 3.0])
        with pytest.raises(ad.ShapeMismatchError) as err:
            ad.sub(a, b)
        assert "(2,)" in str(err.value) and "(3,)" in str(err.value)

    def test_constant_operands_get_no_grad(self):
        g = ad.Graph()
        a = g.leaf([1.0, 2.0])
        out = ad.sub(np.array([3.0, 5.0]), a)
        g.backward(scalar_root(out, [3.0, 5.0]))
        assert np.array_equal(a.grad, [-3.0, -5.0])


class TestLogSigmoid:
    """log sigmoid by its values, and its derivative sigmoid(-x) through
    the loss node: with one token per segment, dL/dx = -sigmoid(-x)."""

    @staticmethod
    def token_loss(x):
        g = ad.Graph()
        chosen = g.leaf(np.atleast_1d(x))
        n = len(chosen.value)
        layout = (np.tile(np.arange(n), 2), np.repeat([1.0, 0.0], n), [n])
        out = loss_node([chosen], [g.leaf(np.zeros(n))], layout)
        g.backward(out)
        return out, chosen.grad

    def test_at_zero(self):
        out, grad = self.token_loss(0.0)
        assert float(ad.log_sigmoid_values(0.0)) == pytest.approx(-math.log(2), abs=1e-15)
        assert float(out.value) == pytest.approx(math.log(2), abs=1e-15)
        assert float(grad[0]) == pytest.approx(-0.5, abs=1e-15)

    def test_at_one(self):
        assert float(ad.log_sigmoid_values(1.0)) == pytest.approx(-0.3132616875182228, abs=1e-12)

    def test_extreme_negative_no_overflow(self):
        assert float(ad.log_sigmoid_values(-1000.0)) == pytest.approx(-1000.0, abs=1e-9)
        for x in (-1e6, 1e6):
            assert np.isfinite(ad.log_sigmoid_values(x))
        out, grad = self.token_loss([-1000.0, 1000.0])
        assert float(out.value) == pytest.approx(1000.0, abs=1e-9)
        assert grad.tolist() == [-1.0, 0.0]

    def test_gradient_is_sigmoid_of_negated_input(self):
        x = np.array([-3.0, -0.5, 0.0, 2.0, 30.0])
        _, grad = self.token_loss(x)
        assert np.allclose(grad, -ad.sigmoid_values(-x), atol=1e-15)


class TestLogSoftmax:
    def test_symmetric_two_way(self):
        out = ad.log_softmax_values([[0.0, 0.0]], axis=1)
        assert np.allclose(out, -math.log(2), atol=1e-15)

    def test_hand_normalized(self):
        out = ad.log_softmax_values([[0.0, math.log(3.0)]], axis=1)
        assert np.allclose(out, [np.log(0.25), np.log(0.75)], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((4, 7))
        a = ad.log_softmax_values(v, axis=1)
        b = ad.log_softmax_values(v + 123.456, axis=1)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_exp_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            v = rng.standard_normal((3, 9)) * rng.uniform(0.1, 50)
            sums = np.sum(np.exp(ad.log_softmax_values(v, axis=1)), axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-12


def ngram_node(logits, rows, targets, up=None):
    """An n-gram's one-node forward over ``logits`` (order 2, vocab the
    table's width) and, given ``up``, its logits gradient under it."""
    policy = lm.NGramPolicy(lm.Vocab(logits.shape[1]), {"logits": logits}, order=2)
    g = ad.Graph()
    leaf = g.leaf(logits)
    node = policy.rows_forward(g, {"logits": leaf}, np.asarray(rows), np.asarray(targets))
    if up is not None:
        g.backward(scalar_root(node, up))
    return node, leaf.grad


class TestStructural:
    """The index arithmetic of the one-node forwards: the n-gram's pick of
    [row, target] and its per-cell scatter, the neural model's id_row_sums."""

    def test_gather_one_hot_equals_dot(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((6, 6))
        picked, _ = ngram_node(logits, [3], [4])
        one_hot = np.zeros(6)
        one_hot[4] = 1.0
        assert float(picked.value[0]) == float(ad.log_softmax_values(logits, axis=1)[3] @ one_hot)

    def test_gather_out_of_bounds_reports_index(self):
        with pytest.raises(ad.IndexBoundsError, match="^gather: index") as err:
            ngram_node(np.zeros((3, 3)), [0, 1], [0, 5])
        assert err.value.index == 5

    def test_embed_lookup_repeated_index_accumulates(self):
        logits = np.arange(9, dtype=float).reshape(3, 3)
        _, grad = ngram_node(logits, [1, 1, 2], [0, 0, 2], np.ones(3))
        _, once = ngram_node(logits, [1], [0], np.ones(1))
        # row 1 referenced twice: twice one position's gradient; row 0 never
        assert np.array_equal(grad[0], np.zeros(3))
        assert np.array_equal(grad[1], 2.0 * once[1])
        assert np.any(grad[2] != 0.0)

    def test_scatter_backward_bitwise_equals_add_at(self):
        # A7-sized ids: repeated ids sum in position order, as np.add.at does
        # (a neural window batch, and an n-gram's rows of a wide table)
        rng = np.random.default_rng(4)
        for (v, d), id_shape in (((12, 8), (640, 26)), ((144, 12), (900,))):
            ids = rng.integers(0, v, size=id_shape)
            up = rng.standard_normal(id_shape + (d,))
            expected = np.zeros((v, d))
            np.add.at(expected, ids.reshape(-1), up.reshape(-1, d))
            assert np.array_equal(ad.id_row_sums(ids, up, (v, d)), expected)

        # the n-gram's cells: one (row, target) pair per position
        rows, targets = rng.integers(0, 12, size=640), rng.integers(0, 12, size=640)
        up = rng.standard_normal(640)
        logits = rng.standard_normal((12, 12))
        picked, grad = ngram_node(logits, rows, targets, up)
        table = ad.log_softmax_values(logits, axis=1)
        assert np.array_equal(picked.value, table[rows, targets])
        cells = np.zeros((12, 12))
        np.add.at(cells, (rows, targets), up)
        assert np.array_equal(grad, cells - np.exp(table) * np.sum(cells, axis=1, keepdims=True))

    def test_embed_lookup_bounds(self):
        with pytest.raises(ad.IndexBoundsError, match="^embed_lookup: index") as err:
            ngram_node(np.zeros((3, 3)), [0, 3], [0, 0])
        assert err.value.index == 3

    def test_slice1d_roundtrip_grads(self):
        g = ad.Graph()
        a = g.leaf(np.arange(6, dtype=float))
        piece = ad.slice1d(a, 2, 5)
        g.backward(scalar_root(piece))
        assert np.array_equal(a.grad, [0, 0, 1, 1, 1, 0])


class TestSegments:
    """The loss node's segment sums z: positions feed their pair's segment
    ``rank`` with weight w, offset by the segments of the pairs before."""

    def test_segments_accumulate_in_position_order(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            n_pairs = int(rng.integers(1, 4))
            kept = rng.integers(1, 5, size=n_pairs)
            lengths = rng.integers(0, 20, size=2 * n_pairs)
            sides = [rng.standard_normal(int(k)) for k in lengths]
            ranks = np.concatenate([rng.integers(0, kept[i // 2], size=n)
                                    for i, n in enumerate(lengths)])
            weights = rng.standard_normal(len(ranks)) if trial % 2 else np.ones(len(ranks))
            beta = (0.5, 1.0, 1.5)[trial % 3]
            g = ad.Graph()
            leaves = [g.leaf(x) for x in sides]
            out = loss_node(leaves[0::2], leaves[1::2], (ranks, weights, kept), beta)
            values = np.concatenate(sides)
            before = np.repeat(np.cumsum(kept) - kept, lengths[0::2] + lengths[1::2])
            z = [0.0] * int(kept.sum())
            for i, s in enumerate(ranks + before):
                z[s] += weights[i] * values[i]
            want = np.sum(ad.log_sigmoid_values(np.array(z) * beta)) * (-1.0 / n_pairs)
            assert out.value.tobytes() == np.float64(want).tobytes()

    def test_empty_segment_sums_to_zero(self):
        # segments 1 and 3 have no position: z = 0 there, a loss of log 2 each
        g = ad.Graph()
        out = loss_node([g.leaf([1.0, 2.0])], [g.leaf([3.0])],
                        ([0, 2, 2], [1.0, 1.0, 1.0], [4]))
        want = np.sum(ad.log_sigmoid_values(np.array([1.0, 0.0, 5.0, 0.0]))) * -1.0
        assert out.value.tobytes() == want.tobytes()

    def test_gradient_split_across_parents_zero_at_dropped(self):
        # a zero weight drops a position (cADPO's rejected token of score 1)
        g = ad.Graph()
        a = g.leaf([1.0, 2.0])
        b = g.leaf([3.0, 4.0, 5.0])
        out = loss_node([a], [b], ([0, 1, 1, 0, 0], [1.0, 2.0, -1.0, 0.0, 0.5], [2]))
        z = np.array([1.0 + 2.5, 4.0 - 3.0])
        assert out.value.tobytes() == (np.sum(ad.log_sigmoid_values(z)) * -1.0).tobytes()
        g.backward(out)
        dz = -ad.sigmoid_values(-z)
        assert np.array_equal(a.grad, [dz[0], 2.0 * dz[1]])
        assert np.array_equal(b.grad, [-dz[1], 0.0, 0.5 * dz[0]])

    def test_segment_bounds_validated(self):
        g = ad.Graph()
        sides = [g.leaf(np.zeros(2))], [g.leaf(np.zeros(1))]
        with pytest.raises(ad.IndexBoundsError, match="^batch_loss: index 2"):
            loss_node(*sides, ([0, 1, 2], [1.0] * 3, [2]))
        with pytest.raises(ad.IndexBoundsError, match="^batch_loss: index -1"):
            loss_node(*sides, ([0, -1, 0], [1.0] * 3, [2]))
        with pytest.raises(ad.ShapeMismatchError, match=r"\(3,\) and \(2,\)"):
            loss_node(*sides, ([0, 0], [1.0] * 3, [2]))
        with pytest.raises(ad.ShapeMismatchError, match=r"\(3,\) and \(1,\)"):
            loss_node(*sides, ([0, 0, 0], [1.0], [2]))


class TestGraph:
    def test_grad_zero_after_creation(self):
        g = ad.Graph()
        a = g.leaf([1.0, 2.0])
        assert np.all(a.grad == 0.0)
        out = scalar_root(a)
        g.backward(out)
        assert np.all(a.grad == 1.0)

    def test_backward_deterministic_bitwise(self):
        rng = np.random.default_rng(5)
        v1, v2 = rng.standard_normal(8), rng.standard_normal(8)

        def run():
            g = ad.Graph()
            a, b = g.leaf(v1), g.leaf(v2)
            pair = losses.PairLogRatios(ad.sub(a, b), g.leaf(np.zeros(8)))
            seg = segment_pair((8, 8), "static", 1)
            g.backward(losses.adpo_loss(losses.LogRatioBatch([pair], beta=1.7), [seg]))
            return a.grad.copy(), b.grad.copy()

        ga1, gb1 = run()
        ga2, gb2 = run()
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)

    def test_backward_requires_scalar_root(self):
        g = ad.Graph()
        a = g.leaf([1.0, 2.0])
        with pytest.raises(ValueError):
            g.backward(a)

    def test_cross_graph_operands_rejected(self):
        g1, g2 = ad.Graph(), ad.Graph()
        with pytest.raises(ValueError):
            ad.sub(g1.leaf(1.0), g2.leaf(2.0))

    def test_dropped_graph_freed_without_cycle_collector(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            g = ad.Graph()
            a = g.leaf([1.0, 2.0])
            g.backward(sum_of_squares(a))
            alive = weakref.ref(g)
            del g
            assert alive() is None
            assert a.graph is None
            with pytest.raises(ValueError, match="freed"):
                ad.sub(a, a)
        finally:
            if was_enabled:
                gc.enable()


def _op_cases(rng):
    """(name, builder, params) triples covering every registered op."""
    n = 5
    v = rng.standard_normal(n)
    w = rng.standard_normal(n)
    mat2 = rng.standard_normal((4, 2))
    bias = rng.standard_normal(2)
    # an order-1 n-gram over vocab 12: all twelve positions read its one row
    ngram_logits = rng.standard_normal((1, 12))
    ids = rng.integers(0, 4, size=(3, 2))
    idx1 = rng.integers(0, 4, size=3)
    seg_ids = rng.integers(0, 3, size=2 * n)  # the second pair's segment 3 stays empty
    seg_w = rng.standard_normal(2 * n)
    flat_const = rng.standard_normal(12)
    ngram_up = rng.standard_normal(12)
    ngram = lm.NGramPolicy(lm.Vocab(12), {"logits": ngram_logits}, order=1)
    ngram_targets = np.concatenate([ids.reshape(-1), idx1, seg_ids[:3]])
    # the neural policy's one-node forward: vocab 4, window 2, embed 3, hidden 2.
    # Its parameters are halved: at unit scale a gradient coordinate can be
    # near 1e-5, where even the extrapolated difference at h = 1e-3 errs by
    # more than 1e-6 relative (5 of 1,000 seeds, up to 9.5e-5); at half
    # scale 1,000 seeds stay below 2.7e-7
    names = ("emb", "w1", "b1", "w2", "b2")
    neural_params = [0.5 * p for p in (rng.standard_normal((4, 3)), flat_const.reshape(6, 2),
                                       bias, mat2.T.copy(), rng.standard_normal(4))]
    neural = lm.NeuralPolicy(lm.Vocab(4), dict(zip(names, neural_params)),
                             context=2, embed_dim=3, hidden_dim=2)
    return [
        # sub's and neural_rows_forward's cotangents vary by entry and change
        # sign, so a backward that drops or flips the upstream gradient
        # fails; they take no draw
        ("sub", lambda g, p: scalar_root(ad.sub(p[0], p[1]), np.linspace(-1.0, 2.0, n)),
         [v, w]),
        ("ngram_rows_forward", lambda g, p: scalar_root(ngram.rows_forward(
            g, {"logits": p[0]}, np.zeros(12, dtype=int), ngram_targets), ngram_up),
         [ngram_logits]),
        ("neural_rows_forward", lambda g, p: scalar_root(neural.rows_forward(
            g, dict(zip(names, p)), ids, idx1), np.linspace(-1.0, 2.0, 3)), neural_params),
        ("slice1d", lambda g, p: scalar_root(ad.slice1d(p[0], 1, 4)), [v]),
        # two pairs, sides (v[:2], w[:3]) and (v[2:], w[3:]), weighted by seg_w
        ("batch_loss", lambda g, p: loss_node(
            [ad.slice1d(p[0], 0, 2), ad.slice1d(p[0], 2, 5)],
            [ad.slice1d(p[1], 0, 3), ad.slice1d(p[1], 3, 5)],
            (seg_ids, seg_w, [3, 4]), beta=1.5), [v, w]),
    ]


class TestGradCheck:
    def test_square_at_three(self):
        report = grad_check(lambda g, p: sum_of_squares(p[0]), [np.array([3.0])], h=1e-5)
        assert report.max_rel_error < 1e-8

    def test_log_sigmoid_at_zero(self):
        # -log sigmoid(x - y) at x = y = 0: the dpo loss of one one-token pair
        report = grad_check(
            lambda g, p: loss_node([p[0]], [p[1]], ([0, 0], [1.0, -1.0], [1])),
            [np.array([0.0]), np.array([0.0])], h=1e-5,
        )
        assert report.max_rel_error < 1e-9

    def test_transposed_parameter(self):
        # a Fortran-ordered copy would make the probes miss the evaluated values
        m = np.arange(6.0).reshape(2, 3) / 7.0
        report = grad_check(lambda g, p: sum_of_squares(p[0]), [m.T], h=1e-5)
        assert report.max_rel_error < 1e-8

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            grad_check(lambda g, p: scalar_root(p[0]), [np.array([1.0])], h=0.0)

    def test_every_registered_op_over_100_seeds(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            for name, build, params in _op_cases(rng):
                report = grad_check(build, params, h=1e-3, tol=1e-6)
                worst = max(worst, report.max_rel_error)
                assert report.passed, f"{name} failed at seed {seed}: {report}"
        assert worst <= 1e-6
