"""Unit tests for the tiny autoregressive policies."""

import copy
import math

import numpy as np
import pytest

from preflab import autodiff as ad
from preflab import lm
from preflab.errors import ValidationError
from preflab.seeds import child_rng


@pytest.fixture
def vocab():
    return lm.Vocab(6)


class TestVocab:
    def test_reserved_ids_distinct_and_in_range(self):
        with pytest.raises(ValidationError):
            lm.Vocab(2)
        with pytest.raises(ValidationError):
            lm.Vocab(6, bos=0, eos=0, pad=2)
        with pytest.raises(ValidationError):
            lm.Vocab(4, bos=0, eos=1, pad=9)

    def test_content_ids_exclude_reserved(self, vocab):
        assert vocab.content_ids() == (3, 4, 5)


class TestNGram:
    def test_uniform_rows(self):
        policy = lm.NGramPolicy.uniform(lm.Vocab(4), order=2)
        out = lm.token_logprobs(policy, (3,), (3, 3, 3))
        assert np.allclose(out, -math.log(4), atol=1e-15)

    def test_bigram_table_lookup(self, vocab):
        # put P(4|3) = 0.75 by storing exact log-probabilities as logits
        probs = np.full((vocab.size, vocab.size), 1.0 / vocab.size)
        probs[3] = [0.05, 0.05, 0.05, 0.05, 0.75, 0.05]
        policy = lm.NGramPolicy(vocab, 2, np.log(probs))
        out = lm.token_logprobs(policy, (3,), (4,))
        assert float(out[0]) == pytest.approx(math.log(0.75), abs=1e-12)

    def test_chain_rule_identity_bitwise(self, vocab):
        rng = np.random.default_rng(0)
        policy = lm.NGramPolicy.random(vocab, 2, rng)
        prompt, response = (3, 4), (5, 3, 3, 4, 5)
        total = lm.seq_logprob(policy, prompt, response)
        assert total == float(np.sum(lm.token_logprobs(policy, prompt, response)))

    def test_manual_chain_recomputation(self, vocab):
        rng = np.random.default_rng(1)
        policy = lm.NGramPolicy.random(vocab, 2, rng)
        prompt = (4, 5)
        response = tuple(rng.integers(0, vocab.size, size=8))
        expected = 0.0
        for i in range(len(response)):
            row = policy.conditional_row(prompt, response[:i])
            expected += row[response[i]]
        assert lm.seq_logprob(policy, prompt, response) == pytest.approx(expected, abs=1e-12)

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

    def test_token_id_out_of_vocab(self, vocab):
        policy = lm.NGramPolicy.uniform(vocab, 2)
        with pytest.raises(lm.TokenIdError):
            lm.token_logprobs(policy, (3,), (4, 99))
        with pytest.raises(lm.TokenIdError):
            policy.batch_context_rows((3,), np.array([[4, 5], [6, 0]]))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_batch_context_rows_match_per_response_rows(self, vocab, order):
        policy = lm.NGramPolicy.uniform(vocab, order)
        responses = np.random.default_rng(4).integers(0, vocab.size, size=(7, 5))
        for prompt in ((), (4,), (3, 5, 4)):
            batch = policy.batch_context_rows(prompt, responses)
            for row, response in zip(batch, responses):
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
        row = policy.conditional_row((3, 4), (5,))
        assert abs(float(np.sum(np.exp(row))) - 1.0) <= 1e-12

    def test_chain_rule_identity(self, vocab):
        policy = self.make(vocab)
        prompt, response = (3,), (4, 5, 3, 4)
        assert lm.seq_logprob(policy, prompt, response) == float(
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
        assert rows[0].tolist() == [vocab.bos, vocab.bos, 3, 4]
        assert rows[1].tolist() == [vocab.bos, 3, 4, 5]
        assert targets.tolist() == [5, 3]

    def test_empty_response(self, vocab):
        policy = self.make(vocab)
        assert lm.token_logprobs(policy, (3,), ()).shape == (0,)
        assert lm.seq_logprob(policy, (3,), ()) == 0.0


class TestCloneFrozen:
    def test_bitwise_equal_at_copy_time(self, vocab):
        policy = lm.NeuralPolicy.init(vocab, child_rng(1, "init"))
        frozen = lm.clone_frozen(policy)
        a = lm.token_logprobs(policy, (3,), (4, 5))
        b = lm.token_logprobs(frozen, (3,), (4, 5))
        assert np.array_equal(a, b)
        assert frozen.frozen

    def test_mutating_original_leaves_clone_unchanged(self, vocab):
        policy = lm.NGramPolicy.random(vocab, 2, np.random.default_rng(4))
        frozen = lm.clone_frozen(policy)
        before = lm.token_logprobs(frozen, (3,), (4, 5, 3)).copy()
        for _ in range(100):
            policy.params["logits"] += 0.05
        after = lm.token_logprobs(frozen, (3,), (4, 5, 3))
        assert np.array_equal(before, after)

    def test_log_ratio_of_clone_is_zero(self, vocab):
        policy = lm.NeuralPolicy.init(vocab, child_rng(2, "init"))
        frozen = lm.clone_frozen(policy)
        a = lm.token_logprobs(policy, (3, 4), (5, 3, 4, 5))
        b = lm.token_logprobs(frozen, (3, 4), (5, 3, 4, 5))
        assert np.array_equal(a, b)


class TestCheckpoint:
    def test_round_trip_bitwise(self, vocab, tmp_path):
        for policy in (
            lm.NGramPolicy.random(vocab, 2, np.random.default_rng(5)),
            lm.NeuralPolicy.init(vocab, child_rng(3, "init"), context=4),
        ):
            path = tmp_path / f"{policy.kind}.json"
            lm.save_checkpoint(policy, path, config_hash="abc")
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

    def test_unknown_kind_rejected(self, vocab, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"kind": "transformer", "vocab": {"size": 6, "bos": 0, "eos": 1, "pad": 2}, '
            '"hyper": {}, "params": {}, "config_hash": ""}'
        )
        with pytest.raises(ValidationError):
            lm.load_checkpoint(path)
