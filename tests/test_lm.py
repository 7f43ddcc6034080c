"""Unit tests for the tiny autoregressive policies."""

import copy
import json
import math

import numpy as np
import pytest

from preflab import autodiff as ad
from preflab import data, lm, oracle, trainer
from preflab.errors import ValidationError
from preflab.losses import LossConfig
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

    def test_size_bounded_before_any_content_is_built(self):
        # no model kind fits a larger vocab; content_ids would take O(size)
        assert lm.Vocab(lm.MAX_VOCAB).size == lm.MAX_VOCAB
        for size in (lm.MAX_VOCAB + 1, 10**12):
            with pytest.raises(ValidationError, match=f"vocab size must be <= {lm.MAX_VOCAB}"):
                lm.Vocab(size)

    def test_content_ids_exclude_reserved(self, vocab):
        assert vocab.content_ids() == (3, 4, 5)

    def test_content_id_matches_tuple_indexing(self):
        rng = np.random.default_rng(0)
        for size in (3, 4, 5, 12, 40):
            for _ in range(20):
                bos, eos, pad = (int(r) for r in rng.choice(size, 3, replace=False))
                vocab = lm.Vocab(size, bos=bos, eos=eos, pad=pad)
                for i, want in enumerate(vocab.content_ids()):
                    for index in (i, np.intp(i)):
                        got = vocab.content_id(index)
                        assert got == want and type(got) is int


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
        # and both equal a plain lookup in the log-softmax table
        table = ad.log_softmax_values(policy.params["logits"], axis=1)
        assert np.array_equal(plain, table[rows, targets])

    def test_token_id_out_of_vocab(self, vocab):
        policy = lm.NGramPolicy.uniform(vocab, 2)
        with pytest.raises(lm.TokenIdError):
            lm.token_logprobs(policy, (3,), (4, 99))
        with pytest.raises(lm.TokenIdError):
            policy.stacked_rows(np.array([[3], [3]]), np.array([[4, 5], [6, 0]]))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_array_stacked_rows_match_per_response_rows(self, vocab, order):
        policy = lm.NGramPolicy.uniform(vocab, order)
        responses = np.random.default_rng(4).integers(0, vocab.size, size=(7, 5))
        for prompt in ((), (4,), (3, 5, 4)):
            prompts = np.broadcast_to(np.asarray(prompt, dtype=np.intp), (7, len(prompt)))
            batch, _ = policy.stacked_rows(prompts, responses)
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


class TestSharedScoring:
    """Scoring is written once: a kind adds only its rows and its forward."""

    def policies(self, vocab):
        yield lm.NGramPolicy.random(vocab, 3, np.random.default_rng(6))
        yield lm.NeuralPolicy.init(vocab, child_rng(6, "init"), context=3)

    def test_both_kinds_bind_the_module_functions(self):
        for name in ("context_rows", "row_logprobs", "conditional_row"):
            shared = getattr(lm, name)
            assert lm.NGramPolicy.__dict__[name] is shared
            assert lm.NeuralPolicy.__dict__[name] is shared

    def test_vocab_logprobs_scores_every_id_of_every_row(self, vocab):
        for policy in self.policies(vocab):
            rows, _ = policy.stacked_rows([(3,), (4, 5)], [(5, 3, 4), (3,)])
            table = lm.vocab_logprobs(policy, rows)
            assert table.shape == (4, vocab.size)
            for t in range(vocab.size):
                one = lm.row_logprobs(policy, rows, np.full(4, t))
                np.testing.assert_allclose(table[:, t], one, rtol=0, atol=1e-12)
            assert lm.vocab_logprobs(policy, rows[:0]).shape == (0, vocab.size)


class TestBlockScoring:
    """Untracked scoring forwards a neural stack in blocks of at least
    ``block_rows`` rows and an n-gram stack in one call."""

    @staticmethod
    def counted(policy):
        calls = []
        forward = policy.rows_forward

        def rows_forward(graph, leaves, rows, targets):
            calls.append(len(targets))
            return forward(graph, leaves, rows, targets)

        policy.rows_forward = rows_forward
        return calls

    @staticmethod
    def one_graph(policy, rows, targets):
        graph = ad.Graph()
        leaves = {name: graph.leaf(value) for name, value in policy.params.items()}
        return policy.rows_forward(graph, leaves, rows, targets).value

    @pytest.mark.parametrize("n,blocks", [(2 * 2048 + 7, [2048, 2055]), (2047, [2047]),
                                          (2048, [2048]), (2049, [2049]), (4096, [2048, 2048])])
    def test_neural_blocks_join_the_remainder(self, n, blocks):
        vocab = lm.Vocab(12)
        policy = lm.NeuralPolicy.init(vocab, child_rng(2, "init"), context=5)
        rng = np.random.default_rng(n)
        rows, targets = rng.integers(0, 12, (n, 5)), rng.integers(0, 12, n)
        whole = self.one_graph(policy, rows, targets)
        calls = self.counted(policy)
        blocked = lm.row_logprobs(policy, rows, targets)
        assert calls == blocks
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


def windows_per_side(vocab, width, prompt, response):
    """Reference: the BOS-filled window before every response position of one
    side, cut from a sliding window over that side alone."""
    history = np.asarray((vocab.bos,) * width + tuple(prompt) + tuple(response), dtype=np.intp)
    view = np.lib.stride_tricks.sliding_window_view(history, width)
    return view[len(prompt) : len(prompt) + len(response)]


def codes_per_side(vocab, order, prompt, response):
    """Reference: each n-gram row as the base-v code of its window, by hand."""
    width = order - 1
    history = (vocab.bos,) * width + tuple(prompt) + tuple(response)
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
            assert np.array_equal(rows, expected) and rows.dtype == np.intp
            assert targets.tolist() == [t for r in responses for t in r]
            for prompt, response in self.SIDES:
                one, _ = policy.context_rows(prompt, response)
                assert np.array_equal(one, self.reference(policy, prompt, response))

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
            lm.token_logprobs(lm.NGramPolicy.uniform(vocab, 2), (3,), (4, 2**70))

    @pytest.mark.parametrize(
        "v,n,mode",
        [(3, 1, "eos"), (3, 4, "eos"), (5, 3, "eos"), (6, 5, "eos"),
         (3, 1, "fixed"), (4, 3, "fixed"), (6, 4, "fixed")],
    )
    def test_reference_table_bitwise_unchanged(self, v, n, mode):
        space = oracle.EnumSpace.build(v, n, mode)
        for order in range(1, n + 2):
            ref = lm.NGramPolicy.random(space.vocab, order, np.random.default_rng(order))
            for prompt in ((), (space.vocab.eos,), (v - 1, 2, v - 1)):
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

    def test_bytes_equal_the_json_dump_writer(self, vocab, tmp_path):
        def json_dump_writer(policy, path, config_hash):
            # the former writer: the same document through json.dump's
            # pure-Python encoder
            doc = {
                "kind": policy.kind,
                "vocab": {"size": policy.vocab.size, "bos": policy.vocab.bos,
                          "eos": policy.vocab.eos, "pad": policy.vocab.pad},
                "hyper": policy.hyper,
                "params": {
                    name: {"shape": list(value.shape), "data": value.reshape(-1).tolist()}
                    for name, value in policy.params.items()
                },
                "config_hash": config_hash,
            }
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")

        for policy in (
            lm.NGramPolicy.random(vocab, 3, np.random.default_rng(7)),
            lm.NeuralPolicy.init(vocab, child_rng(7, "init"), context=5, hidden_dim=16),
        ):
            lm.save_checkpoint(policy, tmp_path / "new.json", config_hash="0f" * 32)
            json_dump_writer(policy, tmp_path / "old.json", "0f" * 32)
            assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

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
        assert 6**9 * 6 > lm.MAX_NGRAM_ENTRIES >= 6**8 * 6
        for order in (10, 10**12):
            with pytest.raises(ValidationError, match="table entries"):
                lm.NGramPolicy.random(vocab, order, self.UnusableRng())
            with pytest.raises(ValidationError, match="table entries"):
                lm.NGramPolicy.uniform(vocab, order)
        assert lm.ngram_table_shape(vocab, 9) == (6**8, 6)

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
        shape = {"context": 8, "embed_dim": 8, "hidden_dim": 32, **widths}
        with pytest.raises(ValidationError, match="parameters, more than"):
            lm.NeuralPolicy(vocab, params={}, **shape)

    def test_neural_size_bound_is_exact(self, vocab):
        # vocab 6, embed 1, hidden 1: context + 19 parameters
        edge = lm.MAX_NEURAL_PARAMS - 19
        assert lm.neural_param_count(vocab, edge, 1, 1) == lm.MAX_NEURAL_PARAMS
        with pytest.raises(ValidationError, match="parameters, more than"):
            lm.neural_param_count(vocab, edge + 1, 1, 1)
        with pytest.raises(ValidationError, match="parameters, more than"):
            lm.NeuralPolicy.init(lm.Vocab(lm.MAX_VOCAB), self.UnusableRng())
        assert lm.neural_param_count(vocab, 8, 8, 32) == 6 * 8 + 8 * 8 * 32 + 32 + 32 * 6 + 6
