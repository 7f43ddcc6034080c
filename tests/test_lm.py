"""Unit tests for the tiny autoregressive policies."""

import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from preflab import autodiff as ad
from preflab import data, lm, oracle, trainer
from preflab.errors import ValidationError
from preflab.losses import LossConfig
from preflab.seeds import child_rng

from helpers import (
    conditional_row, grad_check, scalar_root, seq_logprob, uniform_ngram, vocab_logprobs,
)


@pytest.fixture
def vocab():
    return lm.Vocab(6)


class TestVocab:
    def test_reserved_ids_distinct_and_in_range(self):
        # fixed at 0, 1 and 2, so every vocab of at least 3 ids holds them
        assert (lm.Vocab.BOS, lm.Vocab.EOS, lm.Vocab.PAD) == (0, 1, 2)
        assert lm.Vocab(3).n_content == 0
        with pytest.raises(ValidationError, match="vocab size must be >= 3, got 2"):
            lm.Vocab(2)

    def test_size_bounded_before_any_content_is_built(self):
        # no model kind fits a larger vocab
        assert lm.Vocab(lm.MAX_VOCAB).size == lm.MAX_VOCAB
        for size in (lm.MAX_VOCAB + 1, 10**12):
            with pytest.raises(ValidationError, match=f"vocab size must be <= {lm.MAX_VOCAB}"):
                lm.Vocab(size)

    def test_content_ids_exclude_reserved(self, vocab):
        assert [vocab.content_id(i) for i in range(vocab.n_content)] == [3, 4, 5]

    def test_content_id_matches_tuple_indexing(self):
        for size in (3, 4, 5, 12, 40):
            vocab = lm.Vocab(size)
            content = tuple(i for i in range(size) if i not in (0, 1, 2))
            assert len(content) == vocab.n_content
            for i, want in enumerate(content):
                for index in (i, np.intp(i)):
                    got = vocab.content_id(index)
                    assert got == want and type(got) is int


class TestNGram:
    def test_uniform_rows(self):
        policy = uniform_ngram(lm.Vocab(4), order=2)
        out = lm.token_logprobs(policy, (3,), (3, 3, 3))
        assert np.allclose(out, -math.log(4), atol=1e-15)

    def test_bigram_table_lookup(self, vocab):
        # put P(4|3) = 0.75 by storing exact log-probabilities as logits
        probs = np.full((vocab.size, vocab.size), 1.0 / vocab.size)
        probs[3] = [0.05, 0.05, 0.05, 0.05, 0.75, 0.05]
        policy = lm.NGramPolicy(vocab, {"logits": np.log(probs)}, order=2)
        out = lm.token_logprobs(policy, (3,), (4,))
        assert float(out[0]) == pytest.approx(math.log(0.75), abs=1e-12)

    def test_chain_rule_identity_bitwise(self, vocab):
        rng = np.random.default_rng(0)
        policy = lm.NGramPolicy.random(vocab, 2, rng)
        prompt, response = (3, 4), (5, 3, 3, 4, 5)
        total = seq_logprob(policy, prompt, response)
        assert total == float(np.sum(lm.token_logprobs(policy, prompt, response)))

    def test_manual_chain_recomputation(self, vocab):
        rng = np.random.default_rng(1)
        policy = lm.NGramPolicy.random(vocab, 2, rng)
        prompt = (4, 5)
        response = tuple(rng.integers(0, vocab.size, size=8))
        expected = 0.0
        for i in range(len(response)):
            row = conditional_row(policy, prompt, response[:i])
            expected += row[response[i]]
        assert seq_logprob(policy, prompt, response) == pytest.approx(expected, abs=1e-12)

    def test_rows_normalize_and_stay_positive(self, vocab):
        rng = np.random.default_rng(2)
        policy = lm.NGramPolicy.random(vocab, 3, rng, scale=3.0)
        table = ad.log_softmax_values(policy.params["logits"], axis=1)
        sums = np.sum(np.exp(table), axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        assert np.all(np.isfinite(table))

    def test_plain_path_matches_graph_path_bitwise(self, vocab):
        rng = np.random.default_rng(3)
        policy = lm.NGramPolicy.random(vocab, 2, rng)
        rows, targets = policy.context_rows((3,), (4, 5, 3))
        plain = policy.row_logprobs(rows, targets)
        graph = ad.Graph()
        leaves = {"logits": graph.leaf(policy.params["logits"])}
        tracked = policy.rows_forward(graph, leaves, rows, targets)
        assert np.array_equal(plain, tracked.value)
        # and both equal a plain lookup in the log-softmax table
        table = ad.log_softmax_values(policy.params["logits"], axis=1)
        assert np.array_equal(plain, table[rows, targets])

    def test_token_id_out_of_vocab(self, vocab):
        policy = uniform_ngram(vocab, 2)
        with pytest.raises(lm.TokenIdError):
            lm.token_logprobs(policy, (3,), (4, 99))
        with pytest.raises(lm.TokenIdError):
            policy.stacked_rows([(3,), (3,)], [(4, 5), (6, 0)])

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_array_stacked_rows_match_per_response_rows(self, vocab, order):
        policy = uniform_ngram(vocab, order)
        responses = np.random.default_rng(4).integers(0, vocab.size, size=(7, 5))
        for prompt in ((), (4,), (3, 5, 4)):
            batch, _ = policy.stacked_rows([prompt] * 7, [tuple(r) for r in responses.tolist()])
            for row, response in zip(batch.reshape(responses.shape), responses):
                rows, _ = policy.context_rows(prompt, tuple(response))
                assert np.array_equal(row, rows)


class TestNeural:
    def make(self, vocab, seed=0, **kw):
        return lm.NeuralPolicy.init(vocab, child_rng(seed, "init"), **kw)

    def test_init_ranges(self, vocab):
        policy = self.make(vocab)
        assert np.all(np.abs(policy.params["emb"]) <= 0.1)
        assert np.all(policy.params["b1"] == 0.0)

    def test_rows_normalize(self, vocab):
        policy = self.make(vocab)
        row = conditional_row(policy, (3, 4), (5,))
        assert abs(float(np.sum(np.exp(row))) - 1.0) <= 1e-12

    def test_chain_rule_identity(self, vocab):
        policy = self.make(vocab)
        prompt, response = (3,), (4, 5, 3, 4)
        assert seq_logprob(policy, prompt, response) == float(
            np.sum(lm.token_logprobs(policy, prompt, response))
        )

    def test_forward_deterministic(self, vocab):
        policy = self.make(vocab)
        a = lm.token_logprobs(policy, (3, 4), (5, 5, 3))
        b = lm.token_logprobs(policy, (3, 4), (5, 5, 3))
        assert np.array_equal(a, b)

    def test_context_window_left_fill(self, vocab):
        # first response token sees (BOS-fill + prompt) clipped to the window
        policy = self.make(vocab, context=4)
        rows, targets = policy.context_rows((3, 4), (5, 3))
        assert rows.shape == (2, 4)
        assert rows[0].tolist() == [vocab.BOS, vocab.BOS, 3, 4]
        assert rows[1].tolist() == [vocab.BOS, 3, 4, 5]
        assert targets.tolist() == [5, 3]

    def test_empty_response(self, vocab):
        policy = self.make(vocab)
        assert lm.token_logprobs(policy, (3,), ()).shape == (0,)
        assert seq_logprob(policy, (3,), ()) == 0.0


NEURAL_NAMES = ("emb", "w1", "b1", "w2", "b2")


def op_by_op(params, rows, targets, up):
    """The windowed MLP as a chain of generic ops in plain numpy: forward
    (lookup, flatten, matmul, bias, tanh, matmul, bias, log-softmax,
    gather), then a reverse sweep that accumulates every op's gradient into
    a zero-filled buffer per intermediate, the upstream gradient of the
    picked log-probs being ``up``. Returns the picked values and the five
    parameter gradients."""
    emb, w1, b1, w2, b2 = (params[name] for name in NEURAL_NAMES)
    n = len(targets)
    looked = np.take(emb, rows, axis=0)
    flat = looked.reshape(n, -1)
    pre1 = flat @ w1
    act1 = pre1 + b1[None, :]
    hidden = np.tanh(act1)
    pre2 = hidden @ w2
    logits = pre2 + b2[None, :]
    logp = ad.log_softmax_values(logits, axis=1)
    picked = logp[np.arange(n), targets]

    def zero(a):
        return np.zeros_like(a)

    g_logp = zero(logp)
    g_logp[np.arange(n), targets] += up
    g_logits = zero(logits)
    g_logits += g_logp - np.exp(logp) * np.sum(g_logp, axis=1, keepdims=True)
    g_pre2, g_b2 = zero(pre2), zero(b2)
    g_pre2 += g_logits
    g_b2 += np.sum(g_logits, axis=0)
    g_hidden, g_w2 = zero(hidden), zero(w2)
    g_hidden += g_pre2 @ w2.T
    g_w2 += hidden.T @ g_pre2
    g_act1 = zero(act1)
    g_act1 += g_hidden * (1.0 - hidden * hidden)
    g_pre1, g_b1 = zero(pre1), zero(b1)
    g_pre1 += g_act1
    g_b1 += np.sum(g_act1, axis=0)
    g_flat, g_w1 = zero(flat), zero(w1)
    g_flat += g_pre1 @ w1.T
    g_w1 += flat.T @ g_pre1
    g_looked = zero(looked)
    g_looked += g_flat.reshape(looked.shape)
    g_emb = zero(emb)
    np.add.at(g_emb, rows.reshape(-1), g_looked.reshape(-1, emb.shape[1]))
    return picked, dict(zip(NEURAL_NAMES, (g_emb, g_w1, g_b1, g_w2, g_b2)))


def fused(policy, rows, targets, up):
    """The policy's one-node forward and its backward under ``up``."""
    graph = ad.Graph()
    leaves = {name: graph.leaf(value) for name, value in policy.params.items()}
    node = policy.rows_forward(graph, leaves, rows, targets)
    graph.backward(scalar_root(node, up))
    return node, {name: leaf.grad for name, leaf in leaves.items()}


class TestFusedNeuralForward:
    """``NeuralPolicy.rows_forward`` is one node with a hand-derived
    backward; it must equal the op-by-op chain it replaced, bit for bit."""

    @staticmethod
    def make(n, seed=0, vocab_size=12, scale=1.0, **hyper):
        rng = np.random.default_rng(seed)
        vocab = lm.Vocab(vocab_size)
        policy = lm.NeuralPolicy.init(vocab, rng, **hyper)
        for value in policy.params.values():
            value += scale * rng.standard_normal(value.shape)
        rows = rng.integers(0, vocab.size, size=(n, policy.context))
        targets = rng.integers(0, vocab.size, size=n)
        return policy, rows, targets, rng.standard_normal(n)

    @pytest.mark.parametrize("n", [1, 7, 860, 2049])
    @pytest.mark.parametrize("hyper", [dict(context=5, embed_dim=3, hidden_dim=7),
                                       dict(context=26, embed_dim=8, hidden_dim=48)])
    def test_values_and_grads_equal_the_op_chain_bitwise(self, n, hyper):
        policy, rows, targets, up = self.make(n, **hyper)
        node, grads = fused(policy, rows, targets, up)
        picked, expected = op_by_op(policy.params, rows, targets, up)
        assert np.array_equal(node.value, picked)
        for name in NEURAL_NAMES:
            assert np.array_equal(grads[name], expected[name]), name

    def test_one_node_over_the_five_leaves(self):
        policy, rows, targets, up = self.make(9, context=4, embed_dim=2, hidden_dim=5)
        graph = ad.Graph()
        leaves = {name: graph.leaf(value) for name, value in policy.params.items()}
        other = graph.leaf(np.ones(3))
        node = policy.rows_forward(graph, leaves, rows, targets)
        assert len(graph) == len(leaves) + 2
        # its backward reaches the five leaves and nothing else on the graph
        graph.backward(scalar_root(node, up))
        assert all(np.any(leaves[name].grad) for name in NEURAL_NAMES)
        assert not np.any(other.grad)

    def test_grad_check_every_parameter(self):
        policy, rows, targets, up = self.make(4, vocab_size=5, scale=0.5,
                                               context=2, embed_dim=3, hidden_dim=4)

        def build(graph, params):
            leaves = dict(zip(NEURAL_NAMES, params))
            return scalar_root(policy.rows_forward(graph, leaves, rows, targets), up)

        params = [policy.params[name] for name in NEURAL_NAMES]
        assert grad_check(build, params, h=1e-5, tol=1e-6).passed

    @pytest.mark.parametrize("bad", [12, -1])
    def test_out_of_range_ids_name_their_op(self, bad):
        policy, rows, targets, up = self.make(3, context=4, embed_dim=2, hidden_dim=5)
        graph = ad.Graph()
        leaves = {name: graph.leaf(value) for name, value in policy.params.items()}
        wrong_rows = rows.copy()
        wrong_rows[1, 2] = bad
        with pytest.raises(ad.IndexBoundsError, match="^embed_lookup: index") as err:
            policy.rows_forward(graph, leaves, wrong_rows, targets)
        assert (err.value.index, err.value.size) == (bad, 12)
        wrong_targets = targets.copy()
        wrong_targets[2] = bad
        with pytest.raises(ad.IndexBoundsError, match="^gather: index") as err:
            policy.rows_forward(graph, leaves, rows, wrong_targets)
        assert (err.value.index, err.value.size) == (bad, 12)

    def test_identity_layers_pass_the_embeddings_through(self):
        # context * embed_dim == hidden_dim == vocab: identity weights and
        # zero biases leave log_softmax(tanh(flattened embeddings))
        policy, rows, targets, _ = self.make(5, vocab_size=6, context=2, embed_dim=3,
                                              hidden_dim=6)
        policy.params.update(w1=np.eye(6), b1=np.zeros(6), w2=np.eye(6), b2=np.zeros(6))
        node, _ = fused(policy, rows, targets, np.ones(5))
        flat = policy.params["emb"][rows].reshape(5, 6)
        expected = ad.log_softmax_values(np.tanh(flat), axis=1)[np.arange(5), targets]
        assert np.array_equal(node.value, expected)

    def test_flattened_window_grads_return_to_their_positions(self):
        # window position j holds id 3 + j in every row; with w1 reading only
        # position j's block, only id 3 + j gets an embedding gradient
        context, embed_dim = 3, 2
        policy, _, targets, up = self.make(4, context=context, embed_dim=embed_dim,
                                            hidden_dim=5)
        rows = np.tile(3 + np.arange(context), (4, 1))
        w1 = policy.params["w1"].copy()
        for j in range(context):
            block = np.zeros_like(w1)
            block[j * embed_dim:(j + 1) * embed_dim] = w1[j * embed_dim:(j + 1) * embed_dim]
            policy.params["w1"] = block
            _, grads = fused(policy, rows, targets, up)
            used = np.flatnonzero(np.any(grads["emb"] != 0.0, axis=1))
            assert used.tolist() == [3 + j]

    def test_biases_reduce_over_rows(self):
        policy, rows, targets, up = self.make(6, context=4, embed_dim=2, hidden_dim=5)
        _, grads = fused(policy, rows, targets, up)
        one_at_a_time = [fused(policy, rows[i:i + 1], targets[i:i + 1], up[i:i + 1])[1]
                         for i in range(6)]
        for name in ("b1", "b2"):
            np.testing.assert_allclose(
                grads[name], np.sum([g[name] for g in one_at_a_time], axis=0),
                rtol=0, atol=1e-14,
            )
        # softmax rows sum to one, so the output bias's gradient sums to zero
        assert abs(float(np.sum(grads["b2"]))) <= 1e-14


def ngram_chain(logits, rows, targets, up):
    """The n-gram forward as the chain of generic ops it once was, in plain
    numpy: log-softmax of the table, lookup of each position's row, pick of
    its target; then a reverse sweep into a zero-filled buffer per
    intermediate (the lookup's by np.add.at in position order), the upstream
    gradient of the picked log-probs being ``up``. Returns the picked values
    and the logits gradient."""
    n = len(targets)
    table = ad.log_softmax_values(logits, axis=1)
    looked = np.take(table, rows, axis=0)
    picked = looked[np.arange(n), targets]
    g_looked = np.zeros_like(looked)
    g_looked[np.arange(n), targets] += up
    g_table = np.zeros_like(table)
    np.add.at(g_table, rows, g_looked)
    g_logits = np.zeros_like(logits)
    g_logits += g_table - np.exp(table) * np.sum(g_table, axis=1, keepdims=True)
    return picked, g_logits


def ngram_fused(policy, rows, targets, up):
    """The n-gram's one-node forward and its logits gradient under ``up``."""
    node, grads = fused(policy, rows, targets, up)
    return node, grads["logits"]


class TestFusedNGramForward:
    """``NGramPolicy.rows_forward`` is one node over the logits leaf; it must
    equal the three-op chain it replaced, bit for bit."""

    @staticmethod
    def make(rng, vocab_size, order, n, distinct=None):
        policy = lm.NGramPolicy.random(lm.Vocab(vocab_size), order, rng, scale=3.0)
        table_rows = len(policy.params["logits"])
        # ``distinct`` rows at most, so that rows repeat
        pool = rng.integers(0, table_rows, size=distinct or table_rows)
        rows = rng.choice(pool, size=n)
        return policy, rows, rng.integers(0, vocab_size, size=n), rng.standard_normal(n)

    def test_values_and_grads_equal_the_op_chain_bitwise(self):
        rng = np.random.default_rng(30)
        for case in range(300):
            v, order = int(rng.integers(3, 40)), 1 + case % 3
            n = int(rng.integers(1, 200))
            policy, rows, targets, up = self.make(rng, v, order, n, distinct=int(rng.integers(1, 9)))
            node, grad = ngram_fused(policy, rows, targets, up)
            picked, expected = ngram_chain(policy.params["logits"], rows, targets, up)
            assert np.array_equal(node.value, picked)
            assert np.array_equal(grad, expected), (v, order, n)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_scored_sides_equal_the_op_chain_bitwise(self, vocab, order):
        # rows as the trainer stacks them, from the windows of real sides
        policy = lm.NGramPolicy.random(vocab, order, np.random.default_rng(order))
        rows, targets = policy.stacked_rows([(3, 4), (5,), (4, 4)], [(5, 3, 4, 4), (3,), (5, 5)])
        up = np.random.default_rng(order + 10).standard_normal(len(targets))
        node, grad = ngram_fused(policy, rows, targets, up)
        picked, expected = ngram_chain(policy.params["logits"], rows, targets, up)
        assert np.array_equal(node.value, picked) and np.array_equal(grad, expected)

    def test_repeated_rows_accumulate_in_position_order(self):
        # one (row, target) cell hit by every position: its upstream values
        # add one after another from 0.0, as np.add.at adds them
        rng = np.random.default_rng(31)
        policy = lm.NGramPolicy.random(lm.Vocab(5), 2, rng)
        up = 10.0 ** rng.integers(-8, 9, size=50) * rng.standard_normal(50)
        _, grad = ngram_fused(policy, np.full(50, 3), np.full(50, 2), up)
        total = 0.0
        for g in up:
            total += g
        probs = np.exp(ad.log_softmax_values(policy.params["logits"], axis=1))
        cells = np.zeros((5, 5))
        cells[3, 2] = total
        assert np.array_equal(grad, cells - probs * np.sum(cells, axis=1, keepdims=True))
        assert not np.any(grad[[0, 1, 2, 4]])

    def test_one_node_over_the_logits_leaf(self):
        policy, rows, targets, up = self.make(np.random.default_rng(32), 6, 3, 9)
        graph = ad.Graph()
        leaves = {"logits": graph.leaf(policy.params["logits"])}
        other = graph.leaf(np.ones(3))
        node = policy.rows_forward(graph, leaves, rows, targets)
        assert len(graph) == 3
        # its backward reaches the logits leaf and nothing else on the graph
        graph.backward(scalar_root(node, up))
        assert np.any(leaves["logits"].grad) and not np.any(other.grad)

    @pytest.mark.parametrize("order", [2, 3])
    def test_grad_check_the_logits(self, order):
        policy, rows, targets, up = self.make(np.random.default_rng(order), 3, order, 12, 4)
        logits = 0.5 * policy.params["logits"]

        def build(graph, params):
            leaves = {"logits": params[0]}
            return scalar_root(policy.rows_forward(graph, leaves, rows, targets), up)

        assert grad_check(build, [logits], h=1e-5, tol=1e-6).passed

    @pytest.mark.parametrize("bad", [6, -1])
    def test_out_of_range_ids_name_their_op(self, bad):
        policy, rows, targets, _ = self.make(np.random.default_rng(33), 6, 2, 4)
        graph = ad.Graph()
        leaves = {"logits": graph.leaf(policy.params["logits"])}
        wrong_targets = targets.copy()
        wrong_targets[2] = bad
        with pytest.raises(ad.IndexBoundsError, match="^gather: index") as err:
            policy.rows_forward(graph, leaves, rows, wrong_targets)
        assert (err.value.index, err.value.size) == (bad, 6)
        # a row is checked against the table's rows, and before any target
        wrong_rows = rows.copy()
        wrong_rows[1] = bad
        with pytest.raises(ad.IndexBoundsError, match="^embed_lookup: index") as err:
            policy.rows_forward(graph, leaves, wrong_rows, wrong_targets)
        assert (err.value.index, err.value.size) == (bad, 6)


class TestNGramState:
    """``step``: the n-gram's row recursion, written once. The oracle's
    reference table folds the prompt through ``step`` from row 0, the
    all-BOS window, and continues down the contexts with ``step``."""

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_step_moves_the_window_by_one_token(self, vocab, order):
        policy = uniform_ngram(vocab, order)
        response = (3, 5, 0, 4, 4, 2, 1)
        rows, _ = policy.context_rows((4, 5), response)
        # scalar and vectorized steps alike
        assert [policy.step(r, t) for r, t in zip(rows[:-1], response)] == rows[1:].tolist()
        assert np.array_equal(policy.step(rows[:-1], np.asarray(response[:-1])), rows[1:])

    def test_reference_table_checks_the_prompt_ids(self, vocab):
        policy = uniform_ngram(vocab, 2)
        space = oracle.EnumSpace.build(vocab.size, 2)
        for bad in (-1, vocab.size, 2**70):
            with pytest.raises(lm.TokenIdError, match=f"token id {bad} out of range"):
                oracle.reference_table(space, policy, (3, bad))


class TestIdStream:
    """``id_stream``: the one token-id check, which names the sequence of the
    first bad id."""

    def test_ids_in_sequence_order(self, vocab):
        stream = lm.id_stream(vocab, [(3, 4), (), (5,), [0, 1, 2]])
        assert stream.dtype == np.intp
        assert stream.tolist() == [3, 4, 5, 0, 1, 2]
        assert lm.id_stream(vocab, []).tolist() == []

    @pytest.mark.parametrize("bad", [6, -1, 2**70, -(2**70)])
    @pytest.mark.parametrize(
        "where,seq,later",
        [("start", 0, 99), ("start", 0, 2**70), ("middle", 2, 99), ("middle", 2, 2**70),
         ("end", 4, None)],
    )
    def test_names_the_sequence_of_the_first_bad_id(self, vocab, where, seq, later, bad):
        # an empty sequence sits before the middle one; a later bad id, of
        # either size, must not be the one named
        seqs = [(3, 4), (), (5, 3), (4,), (3, 5)]
        seqs[seq] = {"start": (bad, 3, 4), "middle": (5, bad, 3), "end": (3, 5, bad)}[where]
        if later is not None:
            seqs[3] = (4, later)
        with pytest.raises(lm.TokenIdError) as info:
            lm.id_stream(vocab, seqs)
        assert (info.value.token, info.value.seq) == (bad, seq)
        assert str(info.value) == f"token id {bad} out of range for vocab size {vocab.size}"


class TestSharedScoring:
    """Scoring is written once: a kind adds only its rows and its forward."""

    def policies(self, vocab):
        yield lm.NGramPolicy.random(vocab, 3, np.random.default_rng(6))
        yield lm.NeuralPolicy.init(vocab, child_rng(6, "init"), context=3)

    def test_both_kinds_bind_the_module_functions(self):
        for name in ("context_rows", "row_logprobs"):
            shared = getattr(lm, name)
            assert lm.NGramPolicy.__dict__[name] is shared
            assert lm.NeuralPolicy.__dict__[name] is shared

    def test_vocab_logprobs_scores_every_id_of_every_row(self, vocab):
        for policy in self.policies(vocab):
            rows, _ = policy.stacked_rows([(3,), (4, 5)], [(5, 3, 4), (3,)])
            table = vocab_logprobs(policy, rows)
            assert table.shape == (4, vocab.size)
            for t in range(vocab.size):
                one = lm.row_logprobs(policy, rows, np.full(4, t))
                np.testing.assert_allclose(table[:, t], one, rtol=0, atol=1e-12)
            assert vocab_logprobs(policy, rows[:0]).shape == (0, vocab.size)


class TestBlockScoring:
    """Untracked scoring forwards a neural stack in blocks of at least
    ``block_rows`` rows and an n-gram stack in one call."""

    @staticmethod
    def counted(policy):
        """Sizes of the blocks ``forward_values`` is called on; helper
        threads may append them out of block order."""
        calls = []
        forward = policy.forward_values

        def forward_values(params, rows, targets):
            calls.append(len(targets))
            return forward(params, rows, targets)

        policy.forward_values = forward_values
        return calls

    @staticmethod
    def one_graph(policy, rows, targets):
        graph = ad.Graph()
        leaves = {name: graph.leaf(value) for name, value in policy.params.items()}
        return policy.rows_forward(graph, leaves, rows, targets).value

    @pytest.mark.parametrize("n,blocks", [(2 * 2048 + 7, [2048, 2055]), (2047, [2047]),
                                          (2048, [2048]), (2049, [2049]), (4096, [2048, 2048]),
                                          (5 * 2048 + 3, [2048] * 4 + [2051])])
    def test_neural_blocks_join_the_remainder(self, n, blocks, monkeypatch):
        # two CPUs: the five-block stack is scored on two threads
        monkeypatch.setattr(lm, "_cpu_count", lambda: 2)
        vocab = lm.Vocab(12)
        policy = lm.NeuralPolicy.init(vocab, child_rng(2, "init"), context=5)
        rng = np.random.default_rng(n)
        rows, targets = rng.integers(0, 12, (n, 5)), rng.integers(0, 12, n)
        whole = self.one_graph(policy, rows, targets)
        calls = self.counted(policy)
        blocked = lm.row_logprobs(policy, rows, targets)
        assert sorted(calls) == blocks
        np.testing.assert_allclose(blocked, whole, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n", [1, 2047, 2 * 2048 + 7])
    def test_ngram_scores_any_stack_in_one_call(self, n):
        vocab = lm.Vocab(12)
        policy = lm.NGramPolicy.random(vocab, 3, np.random.default_rng(n))
        rng = np.random.default_rng(n + 1)
        rows, targets = rng.integers(0, 12 * 12, n), rng.integers(0, 12, n)
        calls = self.counted(policy)
        scored = lm.row_logprobs(policy, rows, targets)
        assert calls == [n]
        table = ad.log_softmax_values(policy.params["logits"], axis=1)
        assert np.array_equal(scored, table[rows, targets])


class TestThreadedScoring:
    """A neural stack of at least two blocks per thread is scored by a
    thread pool of one worker per CPU (at most half the blocks); the bytes
    do not depend on the worker count, and no thread outlives the call."""

    BLOCKS = 6

    @pytest.fixture
    def pools(self, monkeypatch):
        """The ``max_workers`` of every pool made while the test runs, so no
        count depends on how fast the pool starts its threads."""
        sizes = []

        class Recorded(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(lm, "ThreadPoolExecutor", Recorded)
        return sizes

    @staticmethod
    def stack(blocks, seed=3):
        vocab = lm.Vocab(12)
        policy = lm.NeuralPolicy.init(vocab, child_rng(seed, "init"), context=26, hidden_dim=48)
        rng = np.random.default_rng(seed)
        for value in policy.params.values():
            value += rng.standard_normal(value.shape)
        n = blocks * policy.block_rows + 11
        windows = rng.integers(0, 12, (n, 26)).astype(np.uint8)
        return policy, windows, rng.integers(0, 12, n)

    def per_block(self, policy, rows, targets):
        """Each block through the tracked forward, on its own graph."""
        size = policy.block_rows
        bounds = [i * size for i in range(len(targets) // size)] + [len(targets)]
        return np.concatenate([TestBlockScoring.one_graph(policy, rows[lo:hi], targets[lo:hi])
                               for lo, hi in zip(bounds[:-1], bounds[1:])])

    def test_same_bytes_at_any_thread_count(self, monkeypatch, pools):
        policy, rows, targets = self.stack(self.BLOCKS)
        expected = self.per_block(policy, rows, targets).tobytes()
        active = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for threads in (1, 2, 3):
                monkeypatch.setattr(lm, "_cpu_count", lambda: threads)
                assert lm.row_logprobs(policy, rows, targets).tobytes() == expected, threads
        finally:
            sys.setswitchinterval(interval)
        # at one thread the caller scores alone, with no pool
        assert pools == [2, 3]
        assert threading.active_count() == active

    # workers: min(CPUs, blocks // 2), and no pool below two
    @pytest.mark.parametrize("blocks,workers", [(1, 0), (3, 0), (4, 2), (5, 2), (6, 3)])
    def test_every_thread_gets_two_blocks(self, monkeypatch, pools, blocks, workers):
        monkeypatch.setattr(lm, "_cpu_count", lambda: 8)
        policy, rows, targets = self.stack(blocks)
        lm.row_logprobs(policy, rows, targets)
        assert pools == ([workers] if workers else [])

    @pytest.mark.parametrize("threads", [1, 3])
    def test_bad_id_in_a_late_block_raises_on_the_callers_thread(self, monkeypatch, threads):
        monkeypatch.setattr(lm, "_cpu_count", lambda: threads)
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        policy, rows, targets = self.stack(self.BLOCKS)
        size = policy.block_rows
        late = slice(4 * size, 5 * size)
        wrong_rows = rows.astype(np.intp)
        wrong_rows[5 * size + 3, 7] = 12
        wrong_targets = targets.copy()
        wrong_targets[4 * size + 9] = -1
        active = threading.active_count()
        # the expected texts: the same blocks through the tracked forward
        with pytest.raises(ad.IndexBoundsError) as alone:
            TestBlockScoring.one_graph(policy, wrong_rows[late], wrong_targets[late])
        for bad_targets in (wrong_targets, targets):
            # with blocks 4 and 5 both bad, block 4's error is raised
            with pytest.raises(ad.IndexBoundsError) as err:
                lm.row_logprobs(policy, wrong_rows, bad_targets)
            if bad_targets is wrong_targets:
                assert str(err.value) == str(alone.value)
                assert str(err.value).startswith("gather: index -1")
            else:
                assert str(err.value).startswith("embed_lookup: index 12")
        assert threading.active_count() == active
        assert hooked == []

    def test_bad_token_id_raises_before_any_scoring(self, monkeypatch, pools):
        monkeypatch.setattr(lm, "_cpu_count", lambda: 3)
        vocab = lm.Vocab(12)
        policy = lm.NeuralPolicy.init(vocab, child_rng(3, "init"), context=26)
        pairs = [data.PreferencePair((3, 4), (4, 5) * 600, (5, 3) * 600) for _ in range(16)]
        pairs[-1] = data.PreferencePair((3, 4), (4, 5), (5, 12))
        with pytest.raises(lm.TokenIdError, match="^token id 12 out of range for vocab size 12$"):
            trainer.plan_dataset(pairs, LossConfig(method="dpo"), policy)
        assert pools == []


def windows_per_side(vocab, width, prompt, response):
    """Reference: the BOS-filled window before every response position of one
    side, cut from a sliding window over that side alone."""
    history = np.asarray((vocab.BOS,) * width + tuple(prompt) + tuple(response), dtype=np.intp)
    view = np.lib.stride_tricks.sliding_window_view(history, width)
    return view[len(prompt) : len(prompt) + len(response)]


def codes_per_side(vocab, order, prompt, response):
    """Reference: each n-gram row as the base-v code of its window, by hand."""
    width = order - 1
    history = (vocab.BOS,) * width + tuple(prompt) + tuple(response)
    codes = []
    for i in range(len(response)):
        code = 0
        for t in history[len(prompt) + i : len(prompt) + i + width]:
            code = code * vocab.size + t
        codes.append(code)
    return codes


def reference_table_per_row(space, ref, prompt):
    """Reference: the oracle's table from windows built one context at a time."""
    rows = []
    for context, n in zip(space.contexts, space.ctx_len):
        ctx = tuple(int(t) for t in context[:n])
        # the row of the position after the context (its target id is irrelevant)
        rows.append(codes_per_side(space.vocab, ref.order, prompt, ctx + (0,))[-1])
    return ad.log_softmax_values(ref.params["logits"], axis=1)[np.asarray(rows, dtype=np.intp)]


class TestSideWindows:
    """One window builder for every side of a dataset, against per-side references."""

    SIDES = [  # (prompt, response): prompts longer than any window, length-1 responses
        ((3, 4, 5, 3, 4, 5, 3, 4), (5,)),
        ((3,), (4, 5, 3, 4, 5, 3, 4, 5, 3)),
        ((4, 4), (3,)),
        ((5, 3, 4, 5, 3), (4, 4)),
    ]

    def policies(self, vocab):
        for context in (1, 2, 4, 9):
            yield lm.NeuralPolicy.init(vocab, child_rng(context, "init"), context=context)
        for order in (1, 2, 3, 4):
            yield lm.NGramPolicy.random(vocab, order, np.random.default_rng(order))

    def reference(self, policy, prompt, response):
        if policy.kind == "neural":
            return windows_per_side(policy.vocab, policy.context, prompt, response)
        codes = codes_per_side(policy.vocab, policy.order, prompt, response)
        return np.asarray(codes, dtype=np.intp)

    def test_stacked_rows_equal_per_side_windows(self, vocab):
        prompts = [p for p, _ in self.SIDES]
        responses = [r for _, r in self.SIDES]
        for policy in self.policies(vocab):
            rows, targets = policy.stacked_rows(prompts, responses)
            expected = np.concatenate([self.reference(policy, p, r) for p, r in self.SIDES])
            assert np.array_equal(rows, expected)
            # neural windows: the smallest unsigned type holding a vocab id
            # (uint8 here); n-gram rows are table rows, intp
            assert rows.dtype == (np.uint8 if policy.kind == "neural" else np.intp)
            assert targets.tolist() == [t for r in responses for t in r]
            for prompt, response in self.SIDES:
                one, _ = policy.context_rows(prompt, response)
                assert np.array_equal(one, self.reference(policy, prompt, response))

    @pytest.mark.parametrize("size,dtype", [(256, np.uint8), (257, np.uint16),
                                            (65536, np.uint16), (65537, np.uint32)])
    def test_windows_take_the_smallest_type_holding_a_vocab_id(self, size, dtype):
        vocab = lm.Vocab(size)
        top = size - 1
        windows, targets = lm.side_windows(vocab, 3, [(top, 3)], [(top, 4, top)])
        assert windows.dtype == dtype and targets.dtype == np.intp
        assert windows.tolist() == [[0, top, 3], [top, 3, top], [3, top, 4]]
        assert targets.tolist() == [top, 4, top]

    def test_empty_response(self, vocab):
        for policy in self.policies(vocab):
            assert lm.token_logprobs(policy, (3, 4), ()).shape == (0,)
            rows, targets = policy.stacked_rows([(3,), (4,), (5,)], [(4,), (), (3, 3)])
            assert np.array_equal(rows[:1], self.reference(policy, (3,), (4,)))
            assert np.array_equal(rows[1:], self.reference(policy, (5,), (3, 3)))
            assert targets.tolist() == [4, 3, 3]

    def test_generated_dataset_plan(self):
        vocab = lm.Vocab(12)
        pairs = data.generate_dataset(data.BigramMatchTask(vocab=vocab, max_len=64, seed=5), 1024)
        sides = [(p.prompt, s) for p in pairs for s in (p.chosen, p.rejected)]
        assert min(len(s) for _, s in sides) == 4 and max(len(s) for _, s in sides) == 64
        policies = [lm.NeuralPolicy.init(vocab, child_rng(0, "init"), context=26)]
        policies += [lm.NGramPolicy.random(vocab, order, np.random.default_rng(order))
                     for order in (1, 2, 3, 4)]
        for ref in policies:
            plan = trainer.plan_dataset(pairs, LossConfig(method="adpo", family="static", k=1), ref)
            expected = np.concatenate([self.reference(ref, p, s) for p, s in sides])
            assert np.array_equal(plan.rows, expected)
            assert plan.targets.tolist() == [t for _, s in sides for t in s]

    @pytest.mark.parametrize("bad", [6, 99, -1])
    @pytest.mark.parametrize("where", ["prompt", "chosen", "rejected"])
    def test_bad_id_in_any_side_is_named(self, vocab, where, bad):
        pairs = [data.PreferencePair((3, 4), (4, 5), (5, 3)) for _ in range(5)]
        sides = {"prompt": (3, 4), "chosen": (4, 5), "rejected": (5, 3), where: (3, bad)}
        pairs[2] = data.PreferencePair(**sides)
        for ref in self.policies(vocab):
            with pytest.raises(lm.TokenIdError, match=f"token id {bad} out of range") as info:
                trainer.plan_dataset(pairs, LossConfig(method="dpo"), ref)
            assert info.value.token == bad
            response = pairs[2].rejected if where == "rejected" else pairs[2].chosen
            with pytest.raises(lm.TokenIdError, match=f"token id {bad} "):
                ref.context_rows(pairs[2].prompt, response)
        with pytest.raises(lm.TokenIdError, match=f"token id {2**70} "):
            lm.token_logprobs(uniform_ngram(vocab, 2), (3,), (4, 2**70))

    @pytest.mark.parametrize(
        "v,n,mode",
        [(3, 1, "eos"), (3, 4, "eos"), (5, 3, "eos"), (6, 5, "eos"),
         (3, 1, "fixed"), (4, 3, "fixed"), (6, 4, "fixed")],
    )
    def test_reference_table_bitwise_unchanged(self, v, n, mode):
        space = oracle.EnumSpace.build(v, n, mode)
        for order in range(1, n + 2):
            ref = lm.NGramPolicy.random(space.vocab, order, np.random.default_rng(order))
            for prompt in ((), (space.vocab.EOS,), (v - 1, 2, v - 1)):
                assert np.array_equal(
                    oracle.reference_table(space, ref, prompt),
                    reference_table_per_row(space, ref, prompt),
                )


class TestCheckpoint:
    def test_round_trip_bitwise(self, vocab, tmp_path):
        for policy in (
            lm.NGramPolicy.random(vocab, 2, np.random.default_rng(5)),
            lm.NeuralPolicy.init(vocab, child_rng(3, "init"), context=4),
        ):
            path = tmp_path / f"{policy.kind}.json"
            lm.save_checkpoint(policy, path)
            loaded = lm.load_checkpoint(path)
            assert loaded.kind == policy.kind
            assert loaded.vocab == policy.vocab
            for name, value in policy.params.items():
                assert np.array_equal(loaded.params[name], value)

    def test_save_is_deterministic(self, vocab, tmp_path):
        policy = lm.NeuralPolicy.init(vocab, child_rng(4, "init"))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        lm.save_checkpoint(policy, p1)
        lm.save_checkpoint(policy, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_equal_the_json_dump_writer(self, vocab, tmp_path):
        def json_dump_writer(policy, path):
            # the former writer: the same document through json.dump's
            # pure-Python encoder
            doc = {
                "kind": policy.kind,
                "vocab": {"size": policy.vocab.size, "bos": 0, "eos": 1, "pad": 2},
                "hyper": policy.hyper,
                "params": {
                    name: {"shape": list(value.shape), "data": value.reshape(-1).tolist()}
                    for name, value in policy.params.items()
                },
            }
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")

        for policy in (
            lm.NGramPolicy.random(vocab, 3, np.random.default_rng(7)),
            lm.NeuralPolicy.init(vocab, child_rng(7, "init"), context=5, hidden_dim=16),
        ):
            lm.save_checkpoint(policy, tmp_path / "new.json")
            json_dump_writer(policy, tmp_path / "old.json")
            assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    def test_checkpoint_with_a_config_hash_still_loads(self, vocab, tmp_path):
        # files written before the field was dropped carry "config_hash";
        # nothing reads it, and they load to the same policy
        for policy in (
            lm.NGramPolicy.random(vocab, 2, np.random.default_rng(8)),
            lm.NeuralPolicy.init(vocab, child_rng(8, "init"), context=3),
        ):
            saved, old = tmp_path / "saved.json", tmp_path / "old.json"
            lm.save_checkpoint(policy, saved)
            doc = json.loads(saved.read_text())
            assert "config_hash" not in doc
            old.write_text(json.dumps({**doc, "config_hash": "0f" * 32}))
            loaded = lm.load_checkpoint(old)
            assert (loaded.kind, loaded.vocab, loaded.hyper) == (policy.kind, policy.vocab, policy.hyper)
            assert loaded.params.keys() == policy.params.keys()
            for name, value in policy.params.items():
                assert loaded.params[name].tobytes() == value.tobytes()
            lm.save_checkpoint(loaded, tmp_path / "resaved.json")
            assert (tmp_path / "resaved.json").read_bytes() == saved.read_bytes()

    def test_unknown_kind_rejected(self, vocab, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"kind": "transformer", "vocab": {"size": 6, "bos": 0, "eos": 1, "pad": 2}, '
            '"hyper": {}, "params": {}, "config_hash": ""}'
        )
        with pytest.raises(ValidationError):
            lm.load_checkpoint(path)


def _saved_doc(policy, tmp_path):
    path = tmp_path / "ckpt.json"
    lm.save_checkpoint(policy, path)
    return json.loads(path.read_text())


class TestCheckpointBoundary:
    @pytest.fixture
    def docs(self, vocab, tmp_path):
        ngram = lm.NGramPolicy.random(vocab, 2, np.random.default_rng(5))
        neural = lm.NeuralPolicy.init(vocab, child_rng(3, "init"), context=2, hidden_dim=4)
        return [_saved_doc(ngram, tmp_path), _saved_doc(neural, tmp_path)]

    def check_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match=match) as info:
            lm.load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_non_json_file(self, tmp_path):
        self.check_rejected(tmp_path, "step,loss\n0,0.69\n", "not valid JSON")
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ValidationError, match="not valid JSON"):
            lm.load_checkpoint(path)

    @pytest.mark.parametrize("key", ["kind", "vocab", "hyper", "params"])
    def test_missing_key(self, tmp_path, docs, key):
        for doc in docs:
            del doc[key]
            self.check_rejected(tmp_path, json.dumps(doc), "lacks key|malformed")

    def test_missing_nested_keys(self, tmp_path, docs):
        ngram, neural = docs
        del ngram["hyper"]["order"]
        self.check_rejected(tmp_path, json.dumps(ngram), "lacks key 'order'")
        del neural["params"]["w1"]["shape"]
        self.check_rejected(tmp_path, json.dumps(neural), "lacks key 'shape'")
        del neural["params"]["w1"]
        self.check_rejected(tmp_path, json.dumps(neural), "malformed")

    @pytest.mark.parametrize(
        "path,value",
        [
            (("vocab", "size"), 6.0),
            (("vocab", "pad"), "2"),
            (("vocab",), [6]),
            (("hyper", "context"), 2.5),
            (("hyper", "hidden_dim"), True),
            (("params",), []),
            (("params", "w1", "data"), "0.1"),
            (("params", "w1", "data"), [[0.1]]),
            (("params", "w1", "shape"), "2,4"),
            (("params", "w1", "shape"), [3, 3]),
            (("params", "b1", "data"), [None] * 4),
            (("params", "b2", "data"), [float("nan")] * 6),
            # well-formed entries under names the model kind does not define
            (("params", "w3"), {"shape": [2], "data": [0.0, 0.0]}),
            (("hyper", "depth"), 2),
            # reserved ids other than the fixed ones, or a vocab entry beside them
            (("vocab", "bos"), 3),
            (("vocab", "pad"), 0),
            (("vocab", "unk"), 3),
        ],
    )
    def test_mistyped_field(self, tmp_path, docs, path, value):
        # every document that has the edited entry's parent
        edited = 0
        for doc in docs:
            node = doc
            for key in path[:-1]:
                node = node.get(key)
            if node is None:
                continue
            node[path[-1]] = value
            self.check_rejected(tmp_path, json.dumps(doc), "malformed")
            edited += 1
        assert edited >= 1

    def test_root_not_an_object(self, tmp_path):
        self.check_rejected(tmp_path, "[1, 2]", "malformed")


class TestModelBounds:
    class UnusableRng:
        """Any draw fails the test: bounds must be checked before allocating."""

        def __getattr__(self, name):
            raise AssertionError(f"rng.{name} used before the bounds check")

    @pytest.mark.parametrize("order", [0, -3])
    def test_order_below_one(self, vocab, order):
        with pytest.raises(ValidationError, match="order must be >= 1"):
            lm.NGramPolicy.random(vocab, order, self.UnusableRng())

    def test_table_bound_checked_before_allocation(self, vocab):
        # vocab 6: order 10 is just over 2**24 entries; a huge order must
        # fail as fast, without building vocab**(order - 1)
        assert 6**9 * 6 > lm.MAX_PARAMS >= 6**8 * 6
        for order in (10, 10**12):
            with pytest.raises(ValidationError, match="table entries") as info:
                lm.NGramPolicy.random(vocab, order, self.UnusableRng())
            # the capped row product is never printed as the table's size
            assert str(info.value) == (
                f"an order-{order} n-gram over 6 tokens needs more than "
                f"{lm.MAX_PARAMS} table entries"
            )
            with pytest.raises(ValidationError, match="table entries"):
                uniform_ngram(vocab, order)
            with pytest.raises(ValidationError, match="table entries"):
                lm.NGramPolicy.init(vocab, self.UnusableRng(), order=order)
        assert lm.NGramPolicy.shapes(vocab, order=9) == {"logits": (6**8, 6)}

    def test_table_bound_is_exact(self):
        # an order-2 table over 2**12 tokens holds exactly 2**24 entries
        assert lm.NGramPolicy.shapes(lm.Vocab(1 << 12), order=2) == {"logits": (1 << 12,) * 2}
        assert (1 << 12) ** 2 == lm.MAX_PARAMS
        with pytest.raises(ValidationError, match="table entries"):
            lm.NGramPolicy.shapes(lm.Vocab((1 << 12) + 1), order=2)

    @pytest.mark.parametrize(
        "widths", [{"hidden_dim": 0}, {"embed_dim": 0}, {"embed_dim": 0, "hidden_dim": 0},
                   {"context": 0}, {"hidden_dim": -2}]
    )
    def test_neural_widths_at_least_one(self, vocab, widths):
        with pytest.raises(ValidationError, match="must be >= 1"):
            lm.NeuralPolicy.init(vocab, self.UnusableRng(), **widths)

    @pytest.mark.parametrize(
        "widths", [{"context": 10**12}, {"embed_dim": 10**12}, {"hidden_dim": 10**12},
                   {"context": 2**40, "embed_dim": 2**40, "hidden_dim": 2**40}]
    )
    def test_neural_size_bound_checked_before_allocation(self, vocab, widths):
        with pytest.raises(ValidationError, match="parameters, more than"):
            lm.NeuralPolicy.init(vocab, self.UnusableRng(), **widths)
        # a checkpoint's hyperparameters are bounded before its params are read
        with pytest.raises(ValidationError, match="parameters, more than"):
            lm.NeuralPolicy(vocab, {}, **{**lm.NeuralPolicy.HYPER, **widths})

    def test_neural_size_bound_is_exact(self, vocab):
        # vocab 6, embed 1, hidden 1: context + 19 parameters
        def count(**hyper):
            shapes = lm.NeuralPolicy.shapes(vocab, **hyper)
            return sum(math.prod(shape) for shape in shapes.values())

        edge = lm.MAX_PARAMS - 19
        assert count(context=edge, embed_dim=1, hidden_dim=1) == lm.MAX_PARAMS
        with pytest.raises(ValidationError, match="parameters, more than"):
            count(context=edge + 1, embed_dim=1, hidden_dim=1)
        with pytest.raises(ValidationError, match="parameters, more than"):
            lm.NeuralPolicy.init(lm.Vocab(lm.MAX_VOCAB), self.UnusableRng())
        assert count(**lm.NeuralPolicy.HYPER) == 6 * 8 + 8 * 8 * 32 + 32 + 32 * 6 + 6


KINDS = sorted(lm.KINDS)


class TestKinds:
    """Every kind is its KINDS entry: HYPER, shapes, init and one constructor."""

    def test_table(self):
        assert lm.KINDS == {"neural": lm.NeuralPolicy, "ngram": lm.NGramPolicy}
        for kind, cls in lm.KINDS.items():
            assert cls.kind == kind
            assert cls.__init__ is lm.NGramPolicy.__init__
            assert cls.__dict__["hyper"] is lm.NGramPolicy.__dict__["hyper"]

    def test_no_two_kinds_share_a_hyperparameter(self):
        # the config's flat model section holds every kind's names at once
        names = [name for cls in lm.KINDS.values() for name in cls.HYPER]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("kind", KINDS)
    def test_init_params_match_shapes(self, vocab, kind):
        cls = lm.KINDS[kind]
        policy = cls.init(vocab, np.random.default_rng(0))
        assert policy.hyper == cls.HYPER
        shapes = cls.shapes(vocab, **cls.HYPER)
        assert list(policy.params) == list(shapes)
        assert {name: value.shape for name, value in policy.params.items()} == shapes
        assert all(value.dtype == np.float64 for value in policy.params.values())

    @pytest.mark.parametrize("kind", KINDS)
    def test_init_draws_are_the_documented_ones(self, vocab, kind):
        cls = lm.KINDS[kind]
        policy = cls.init(vocab, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        for name, shape in cls.shapes(vocab, **cls.HYPER).items():
            if kind == "ngram":
                want = 0.1 * rng.standard_normal(shape)
            elif len(shape) == 2:
                want = rng.uniform(-0.1, 0.1, size=shape)
            else:
                want = np.zeros(shape)
            assert np.array_equal(policy.params[name], want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_checkpoint_round_trip(self, vocab, kind, tmp_path):
        cls = lm.KINDS[kind]
        hyper = {name: value + 1 for name, value in cls.HYPER.items()}
        policy = cls.init(vocab, np.random.default_rng(1), **hyper)
        lm.save_checkpoint(policy, tmp_path / "a.json")
        loaded = lm.load_checkpoint(tmp_path / "a.json")
        assert type(loaded) is cls and loaded.hyper == hyper and loaded.vocab == vocab
        lm.save_checkpoint(loaded, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_width_at_least_one(self, vocab, kind):
        cls = lm.KINDS[kind]
        for name in cls.HYPER:
            with pytest.raises(ValidationError, match=f"{name} must be >= 1"):
                cls.init(vocab, TestModelBounds.UnusableRng(), **{name: 0})

    @pytest.mark.parametrize("kind", KINDS)
    def test_unknown_names_rejected(self, vocab, kind):
        cls = lm.KINDS[kind]
        policy = cls.init(vocab, np.random.default_rng(2))
        with pytest.raises(ValidationError, match=f"{kind} models define no hyper entry 'depth'"):
            cls.init(vocab, TestModelBounds.UnusableRng(), depth=2)
        with pytest.raises(ValidationError, match=f"{kind} models define no hyper entry 'depth'"):
            cls(vocab, policy.params, depth=2, **policy.hyper)
        # parameter names and shapes must match shapes() exactly
        bad = [{**policy.params, "w3": np.zeros(2)}]
        for name, shape in cls.shapes(vocab, **policy.hyper).items():
            bad.append({k: v for k, v in policy.params.items() if k != name})
            bad.append({**policy.params, name: np.zeros(shape + (1,))})
        for params in bad:
            with pytest.raises(ValidationError, match=f"{kind} parameter shapes .*, expected"):
                cls(vocab, params, **policy.hyper)

    @pytest.mark.parametrize("kind", KINDS)
    def test_checkpoint_hyper_named_like_a_constructor_argument(self, vocab, kind, tmp_path):
        # the constructor takes vocab and params by position only, so every
        # entry reaches its hyperparameter check
        policy = lm.KINDS[kind].init(vocab, np.random.default_rng(3))
        for name in ("frozen", "vocab", "params"):
            doc = _saved_doc(policy, tmp_path)
            doc["hyper"][name] = 1
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(ValidationError, match=f"malformed: .*no hyper entry '{name}'"):
                lm.load_checkpoint(path)
