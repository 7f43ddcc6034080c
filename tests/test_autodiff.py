"""Unit tests for the reverse-mode autodiff core."""

import gc
import math
import weakref

import numpy as np
import pytest

from preflab import autodiff as ad


def scalar_graph():
    return ad.Graph()


class TestElementwise:
    def test_mul_product_rule(self):
        g = ad.Graph()
        x, y = g.leaf(3.0), g.leaf(4.0)
        out = ad.mul(x, y)
        g.backward(out)
        assert float(out.value) == 12.0
        assert float(x.grad) == 4.0
        assert float(y.grad) == 3.0

    def test_add_neg_symmetry(self):
        g = ad.Graph()
        a = g.leaf([1.5, -2.0, 7.0])
        out = ad.add(a, ad.neg(a))
        assert np.all(out.value == 0.0)
        b = g.leaf([1.5, -2.0, 7.0])
        c = ad.neg(b)
        total = ad.sum(ad.add(a, c))
        g.backward(total)
        # through both paths: +1 via add(a, .) and -1 via neg(a) on the first out
        assert np.allclose(b.grad, -1.0)

    def test_neg_grad_sign(self):
        g = ad.Graph()
        a = g.leaf([2.0, 3.0])
        g.backward(ad.sum(ad.neg(a)))
        assert np.all(a.grad == -1.0)

    def test_sum_empty_is_zero(self):
        g = ad.Graph()
        a = g.leaf(np.zeros(0))
        out = ad.sum(a)
        assert float(out.value) == 0.0

    def test_scalar_broadcast(self):
        g = ad.Graph()
        a = g.leaf([1.0, 2.0, 3.0])
        s = g.leaf(2.0)
        out = ad.sum(ad.mul(a, s))
        g.backward(out)
        assert np.allclose(a.grad, 2.0)
        assert float(s.grad) == 6.0

    def test_shape_mismatch_names_both_shapes(self):
        g = ad.Graph()
        a, b = g.leaf([1.0, 2.0]), g.leaf([1.0, 2.0, 3.0])
        with pytest.raises(ad.ShapeMismatchError) as err:
            ad.add(a, b)
        assert "(2,)" in str(err.value) and "(3,)" in str(err.value)

    def test_constant_operands_get_no_grad(self):
        g = ad.Graph()
        a = g.leaf([1.0, 2.0])
        out = ad.sum(ad.mul(a, np.array([3.0, 5.0])))
        g.backward(out)
        assert np.allclose(a.grad, [3.0, 5.0])


class TestLogSigmoid:
    def test_at_zero(self):
        g = ad.Graph()
        x = g.leaf(0.0)
        out = ad.log_sigmoid(x)
        g.backward(out)
        assert float(out.value) == pytest.approx(-math.log(2), abs=1e-15)
        assert float(x.grad) == pytest.approx(0.5, abs=1e-15)

    def test_at_one(self):
        g = ad.Graph()
        out = ad.log_sigmoid(g.leaf(1.0))
        assert float(out.value) == pytest.approx(-0.3132616875182228, abs=1e-12)

    def test_extreme_negative_no_overflow(self):
        g = ad.Graph()
        out = ad.log_sigmoid(g.leaf(-1000.0))
        assert float(out.value) == pytest.approx(-1000.0, abs=1e-9)
        for x in (-1e6, 1e6):
            v = float(ad.log_sigmoid(g.leaf(x)).value)
            assert np.isfinite(v)

    def test_gradient_is_sigmoid_of_negated_input(self):
        g = ad.Graph()
        x = g.leaf([-3.0, -0.5, 0.0, 2.0, 30.0])
        g.backward(ad.sum(ad.log_sigmoid(x)))
        assert np.allclose(x.grad, ad.sigmoid_values(-x.value), atol=1e-15)


class TestLogSoftmax:
    def test_symmetric_two_way(self):
        g = ad.Graph()
        out = ad.log_softmax(g.leaf([[0.0, 0.0]]), axis=1)
        assert np.allclose(out.value, -math.log(2), atol=1e-15)

    def test_hand_normalized(self):
        g = ad.Graph()
        out = ad.log_softmax(g.leaf([[0.0, math.log(3.0)]]), axis=1)
        assert np.allclose(out.value, [np.log(0.25), np.log(0.75)], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((4, 7))
        g = ad.Graph()
        a = ad.log_softmax(g.leaf(v), axis=1).value
        b = ad.log_softmax(g.leaf(v + 123.456), axis=1).value
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_exp_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            v = rng.standard_normal((3, 9)) * rng.uniform(0.1, 50)
            g = ad.Graph()
            out = ad.log_softmax(g.leaf(v), axis=1)
            sums = np.sum(np.exp(out.value), axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-12


class TestStructural:
    def test_gather_one_hot_equals_dot(self):
        rng = np.random.default_rng(2)
        row = rng.standard_normal(6)
        g = ad.Graph()
        a = g.leaf(row[None, :])
        picked = ad.gather(a, np.array([4]))
        one_hot = np.zeros(6)
        one_hot[4] = 1.0
        assert float(picked.value[0]) == float(row @ one_hot)

    def test_gather_out_of_bounds_reports_index(self):
        g = ad.Graph()
        a = g.leaf(np.zeros((2, 3)))
        with pytest.raises(ad.IndexBoundsError) as err:
            ad.gather(a, np.array([0, 5]))
        assert err.value.index == 5

    def test_matmul_identity(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4))
        g = ad.Graph()
        out = ad.matmul(g.leaf(m), np.eye(4))
        assert np.array_equal(out.value, m)

    def test_embed_lookup_repeated_index_accumulates(self):
        g = ad.Graph()
        table = g.leaf(np.arange(6, dtype=float).reshape(3, 2))
        out = ad.embed_lookup(table, np.array([1, 1, 2]))
        g.backward(ad.sum(out))
        # row 1 referenced twice: gradient 2 per entry; row 2 once; row 0 never
        assert np.array_equal(table.grad, [[0, 0], [2, 2], [1, 1]])

    def test_scatter_backward_bitwise_equals_add_at(self):
        # A7-sized ids: repeated ids sum in position order, as np.add.at does
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 12, size=(640, 26))
        up = rng.standard_normal((640, 26, 8))
        g = ad.Graph()
        table = g.leaf(rng.standard_normal((12, 8)))
        g.backward(ad.sum(ad.mul(ad.embed_lookup(table, ids), up)))
        expected = np.zeros((12, 8))
        np.add.at(expected, ids.reshape(-1), up.reshape(-1, 8))
        assert np.array_equal(table.grad, expected)

        idx = rng.integers(0, 12, size=640)
        up = rng.standard_normal(640)
        g = ad.Graph()
        a = g.leaf(rng.standard_normal((640, 12)))
        g.backward(ad.sum(ad.mul(ad.gather(a, idx), up)))
        expected = np.zeros((640, 12))
        np.add.at(expected, (np.arange(640), idx), up)
        assert np.array_equal(a.grad, expected)

    def test_embed_lookup_bounds(self):
        g = ad.Graph()
        table = g.leaf(np.zeros((3, 2)))
        with pytest.raises(ad.IndexBoundsError):
            ad.embed_lookup(table, np.array([[0, 3]]))

    def test_slice_and_reshape_roundtrip_grads(self):
        g = ad.Graph()
        a = g.leaf(np.arange(6, dtype=float))
        piece = ad.slice1d(a, 2, 5)
        g.backward(ad.sum(piece))
        assert np.array_equal(a.grad, [0, 0, 1, 1, 1, 0])
        g2 = ad.Graph()
        b = g2.leaf(np.arange(6, dtype=float))
        g2.backward(ad.sum(ad.reshape(b, (2, 3))))
        assert np.all(b.grad == 1.0)

    def test_add_bias_reduces_over_rows(self):
        g = ad.Graph()
        m = g.leaf(np.zeros((3, 2)))
        b = g.leaf(np.array([1.0, 2.0]))
        g.backward(ad.sum(ad.add_bias(m, b)))
        assert np.all(m.grad == 1.0)
        assert np.array_equal(b.grad, [3.0, 3.0])


class TestSegments:
    def test_segments_accumulate_in_position_order(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            sizes = rng.integers(0, 20, size=3)
            parts = [rng.standard_normal(int(k)) for k in sizes]
            total = int(np.sum(sizes))
            ids = rng.integers(0, 5, size=total)
            weights = rng.standard_normal(total) if trial % 2 else None
            g = ad.Graph()
            out = ad.weighted_segment_sum([g.leaf(p) for p in parts], ids, 5, weights)
            values = np.concatenate(parts)
            w = np.ones(total) if weights is None else weights
            expected = [0.0] * 5
            for i in range(total):
                expected[ids[i]] += w[i] * values[i]
            assert out.value.tolist() == expected

    def test_empty_segment_sums_to_zero(self):
        g = ad.Graph()
        a = g.leaf([1.0, 2.0, 3.0])
        out = ad.weighted_segment_sum([a], [0, 2, 2], 4)
        assert out.value.tolist() == [1.0, 0.0, 5.0, 0.0]

    def test_gradient_split_across_parents_zero_at_dropped(self):
        # a zero weight drops a position (cADPO's rejected token of score 1)
        g = ad.Graph()
        a = g.leaf([1.0, 2.0])
        b = g.leaf([3.0, 4.0, 5.0])
        out = ad.weighted_segment_sum([a, b], [0, 1, 1, 0, 0], 2, [1.0, 2.0, -1.0, 0.0, 0.5])
        assert out.value.tolist() == [1.0 + 2.5, 4.0 - 3.0]
        g.backward(ad.sum(ad.mul(out, np.array([10.0, 100.0]))))
        assert np.array_equal(a.grad, [10.0, 200.0])
        assert np.array_equal(b.grad, [-100.0, 0.0, 5.0])

    def test_segment_bounds_validated(self):
        g = ad.Graph()
        a = g.leaf(np.zeros(3))
        with pytest.raises(ad.IndexBoundsError):
            ad.weighted_segment_sum([a], [0, 1, 2], 2)
        with pytest.raises(ad.IndexBoundsError):
            ad.weighted_segment_sum([a], [0, -1, 0], 2)
        with pytest.raises(ad.ShapeMismatchError):
            ad.weighted_segment_sum([a], [0, 0], 2)
        with pytest.raises(ad.ShapeMismatchError):
            ad.weighted_segment_sum([a], [0, 0, 0], 2, [1.0])


class TestGraph:
    def test_grad_zero_after_creation_and_zero_grad(self):
        g = ad.Graph()
        a = g.leaf([1.0, 2.0])
        assert np.all(a.grad == 0.0)
        out = ad.sum(a)
        g.backward(out)
        assert np.all(a.grad == 1.0)
        g.zero_grad()
        assert np.all(a.grad == 0.0)

    def test_backward_deterministic_bitwise(self):
        rng = np.random.default_rng(5)
        v1, v2 = rng.standard_normal(8), rng.standard_normal(8)

        def run():
            g = ad.Graph()
            a, b = g.leaf(v1), g.leaf(v2)
            out = ad.sum(ad.log_sigmoid(ad.mul(ad.sub(a, b), 1.7)))
            g.backward(out)
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
            ad.add(g1.leaf(1.0), g2.leaf(2.0))

    def test_dropped_graph_freed_without_cycle_collector(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            g = ad.Graph()
            a = g.leaf([1.0, 2.0])
            g.backward(ad.sum(ad.mul(a, a)))
            alive = weakref.ref(g)
            del g
            assert alive() is None
            assert a.graph is None
            with pytest.raises(ValueError, match="freed"):
                ad.sum(a)
        finally:
            if was_enabled:
                gc.enable()


def _op_cases(rng):
    """(name, builder, params) triples covering every registered op."""
    n = 5
    v = rng.standard_normal(n)
    w = rng.standard_normal(n)
    mat = rng.standard_normal((3, 4))
    mat2 = rng.standard_normal((4, 2))
    bias = rng.standard_normal(2)
    table = rng.standard_normal((4, 3))
    ids = rng.integers(0, 4, size=(3, 2))
    idx1 = rng.integers(0, 4, size=3)
    seg_ids = rng.integers(0, 3, size=2 * n)  # segment 3 stays empty
    seg_w = rng.standard_normal(2 * n)
    flat_const = rng.standard_normal(12)
    seg_const = rng.standard_normal(4)
    gather_mat = rng.standard_normal((3, 4))
    return [
        ("add", lambda g, p: ad.sum(ad.add(p[0], p[1])), [v, w]),
        ("sub", lambda g, p: ad.sum(ad.sub(p[0], p[1])), [v, w]),
        ("mul", lambda g, p: ad.sum(ad.mul(p[0], p[1])), [v, w]),
        ("neg", lambda g, p: ad.sum(ad.neg(p[0])), [v]),
        ("sum_axis", lambda g, p: ad.sum(ad.sum(p[0], axis=0)), [mat]),
        ("tanh", lambda g, p: ad.sum(ad.tanh(p[0])), [v]),
        ("log_sigmoid", lambda g, p: ad.sum(ad.log_sigmoid(p[0])), [v]),
        ("log_softmax", lambda g, p: ad.sum(ad.mul(ad.log_softmax(p[0], axis=1), mat)), [mat]),
        ("matmul", lambda g, p: ad.sum(ad.matmul(p[0], p[1])), [mat, mat2]),
        ("add_bias", lambda g, p: ad.sum(ad.add_bias(ad.matmul(p[0], p[1]), p[2])), [mat, mat2, bias]),
        ("gather", lambda g, p: ad.sum(ad.gather(p[0], idx1)), [gather_mat]),
        ("embed_lookup", lambda g, p: ad.sum(ad.embed_lookup(p[0], ids)), [table]),
        ("reshape", lambda g, p: ad.sum(ad.mul(ad.reshape(p[0], (12,)), flat_const)), [mat]),
        ("slice1d", lambda g, p: ad.sum(ad.slice1d(p[0], 1, 4)), [v]),
        ("weighted_segment_sum", lambda g, p: ad.sum(ad.mul(ad.weighted_segment_sum([p[0], p[1]], seg_ids, 4, seg_w), seg_const)), [v, w]),
        ("unweighted_segment_sum", lambda g, p: ad.sum(ad.mul(ad.weighted_segment_sum([p[0], ad.mul(p[0], p[1])], seg_ids, 4), seg_const)), [v, w]),
    ]


class TestGradCheck:
    def test_square_at_three(self):
        report = ad.grad_check(
            lambda g, p: ad.sum(ad.mul(p[0], p[0])), [np.array([3.0])], h=1e-5
        )
        assert report.max_rel_error < 1e-8

    def test_log_sigmoid_at_zero(self):
        report = ad.grad_check(
            lambda g, p: ad.sum(ad.log_sigmoid(p[0])), [np.array([0.0])], h=1e-5
        )
        assert report.max_rel_error < 1e-9

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            ad.grad_check(lambda g, p: ad.sum(p[0]), [np.array([1.0])], h=0.0)

    def test_every_registered_op_over_100_seeds(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            for name, build, params in _op_cases(rng):
                report = ad.grad_check(build, params, h=1e-5, tol=1e-6)
                worst = max(worst, report.max_rel_error)
                assert report.passed, f"{name} failed at seed {seed}: {report}"
        assert worst <= 1e-6
