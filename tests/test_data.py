"""Unit tests for synthetic dataset generation and JSONL persistence."""

import json
import math

import numpy as np
import pytest

from preflab import data as D
from preflab.autodiff import sigmoid_values
from preflab.errors import DataFormatError, ValidationError
from preflab.lm import NGramPolicy, Vocab


@pytest.fixture
def vocab():
    return Vocab(12)


@pytest.fixture
def task(vocab):
    return D.BigramMatchTask(vocab=vocab, seed=0)


class TestReward:
    def test_counts_prompt_bigram(self, task):
        prompt = (5, 7)
        response = (5, 7, 3, 5, 7, 5)
        assert task.reward(prompt, response) == pytest.approx(2 - 0.05 * 6)

    def test_no_match(self, task):
        assert task.reward((5, 7), (3, 4, 3)) == pytest.approx(-0.15)

    def test_deterministic(self, task):
        assert task.reward((5, 7), (5, 7)) == task.reward((5, 7), (5, 7))


class TestGeneration:
    def test_deterministic_labels_respect_reward(self, task):
        pairs = D.generate_dataset(task, 300)
        for pair in pairs:
            assert task.reward(pair.prompt, pair.chosen) >= task.reward(
                pair.prompt, pair.rejected
            )

    def test_sequences_stay_in_content_alphabet(self, task, vocab):
        reserved = {vocab.bos, vocab.eos, vocab.pad}
        for pair in D.generate_dataset(task, 100):
            for seq in (pair.prompt, pair.chosen, pair.rejected):
                assert all(0 <= t < vocab.size for t in seq)
                assert not (set(seq) & reserved)

    def test_lengths_in_range(self, task):
        for pair in D.generate_dataset(task, 100):
            assert task.min_len <= len(pair.chosen) <= task.max_len
            assert task.min_len <= len(pair.rejected) <= task.max_len
            assert pair.chosen != pair.rejected

    def test_same_seed_reproduces(self, task):
        a = D.generate_dataset(task, 50)
        b = D.generate_dataset(task, 50)
        assert all(
            x.prompt == y.prompt and x.chosen == y.chosen and x.rejected == y.rejected
            for x, y in zip(a, b)
        )

    def test_degenerate_task_still_labels_by_coin(self, vocab):
        # flat rewards almost everywhere: ties fall back to the fair coin
        task = D.BigramMatchTask(
            vocab=vocab, seed=3, bigram_rate=0.0, length_penalty=0.0,
            min_len=4, max_len=4,
        )
        pairs = D.generate_dataset(task, 200)
        assert len(pairs) == 200

    def test_n_pairs_validated(self, task):
        with pytest.raises(ValidationError):
            D.generate_dataset(task, 0)
        with pytest.raises(ValidationError):
            D.generate_dataset(task, 5, labeling="majority")


class TestBTLabeling:
    def test_equal_rewards_fair_coin(self):
        rng = np.random.default_rng(0)
        wins = sum(D.bt_preference(rng, 1.0, 1.0) for _ in range(10_000))
        # binomial 3-sigma band around p = 0.5
        assert abs(wins / 10_000 - 0.5) <= 3 * math.sqrt(0.25 / 10_000)

    def test_fixed_margin_matches_sigmoid(self):
        rng = np.random.default_rng(1)
        delta = 1.2
        p = float(sigmoid_values(delta))
        wins = sum(D.bt_preference(rng, delta, 0.0) for _ in range(10_000))
        assert abs(wins / 10_000 - p) <= 3 * math.sqrt(p * (1 - p) / 10_000)

    def test_bt_dataset_prefers_higher_reward_stochastically(self, vocab):
        task = D.BigramMatchTask(vocab=vocab, seed=5)
        pairs = D.generate_dataset(task, 2000, labeling="bt")
        higher_won = sum(
            1
            for p in pairs
            if task.reward(p.prompt, p.chosen) >= task.reward(p.prompt, p.rejected)
        )
        # rewards differ by >= ~1 for most informative pairs, so the winner
        # should track the reward order well above chance
        assert higher_won / len(pairs) > 0.6


class TestTokenScores:
    def test_identical_policies_give_half(self, vocab, task):
        pair = D.generate_dataset(task, 1)[0]
        policy = NGramPolicy.random(vocab, 2, np.random.default_rng(2))
        scores = D.compute_token_scores(policy, policy, pair)
        assert np.allclose(scores, 0.5, atol=1e-15)
        assert scores.shape == (len(pair.rejected),)

    def test_hand_built_log_ratio(self, vocab):
        # neg assigns 3x the positive probability at one position: sigma(ln 3) = 0.75
        uniform = np.zeros((vocab.size, vocab.size))
        pos = NGramPolicy(vocab, 2, uniform)
        boosted = uniform.copy()
        boosted[3, 4] = math.log(3.0)
        neg = NGramPolicy(vocab, 2, boosted)
        pair = D.PreferencePair(prompt=(5, 3), chosen=(6, 6), rejected=(4, 5))
        scores = D.compute_token_scores(pos, neg, pair)
        lp_pos = pos.conditional_row((5, 3), ())[4]
        lp_neg = neg.conditional_row((5, 3), ())[4]
        assert scores[0] == pytest.approx(float(sigmoid_values(lp_neg - lp_pos)), abs=1e-12)
        assert np.all((scores > 0) & (scores < 1))

    def test_attach_scores_covers_every_pair(self, vocab, task):
        pairs = D.generate_dataset(task, 10)
        D.attach_scores(pairs, vocab, seed=0)
        for pair in pairs:
            assert pair.rejected_scores is not None
            assert pair.rejected_scores.shape == (len(pair.rejected),)
            assert np.all((pair.rejected_scores > 0) & (pair.rejected_scores < 1))


class TestPairValidation:
    def test_identical_sides_rejected(self):
        with pytest.raises(ValidationError):
            D.PreferencePair(prompt=(3,), chosen=(4, 5), rejected=(4, 5))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            D.PreferencePair(prompt=(3,), chosen=(4,), rejected=())

    def test_score_shape_and_range(self):
        with pytest.raises(ValidationError):
            D.PreferencePair(
                prompt=(3,), chosen=(4,), rejected=(5, 6), rejected_scores=[0.5]
            )
        with pytest.raises(ValidationError):
            D.PreferencePair(
                prompt=(3,), chosen=(4,), rejected=(5, 6), rejected_scores=[0.5, 1.5]
            )
        with pytest.raises(ValidationError):
            D.PreferencePair(
                prompt=(3,), chosen=(4,), rejected=(5, 6), rejected_scores=[0.5, float("nan")]
            )


class TestJsonl:
    def test_round_trip_byte_identical(self, task, tmp_path):
        pairs = D.generate_dataset(task, 20)
        D.attach_scores(pairs, task.vocab, seed=1)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        D.save_jsonl(pairs, p1)
        loaded = D.load_jsonl(p1)
        D.save_jsonl(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_same_seed_same_bytes(self, vocab, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (p1, p2):
            task = D.BigramMatchTask(vocab=vocab, seed=9)
            D.save_jsonl(D.generate_dataset(task, 30), path)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert D.load_jsonl(path) == []

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"prompt": [3], "chosen": [4], "rejected": [5]}\nnot json\n'
        )
        with pytest.raises(DataFormatError, match="line 2"):
            D.load_jsonl(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"prompt": [3], "chosen": [4]}\n')
        with pytest.raises(DataFormatError, match="rejected"):
            D.load_jsonl(path)

    def test_wrong_score_length_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"prompt": [3], "chosen": [4], "rejected": [5, 6], "rejected_scores": [0.5]}\n'
        )
        with pytest.raises(DataFormatError, match="line 1"):
            D.load_jsonl(path)

    @pytest.mark.parametrize(
        "line,match",
        [
            ("[1, 2, 3]", "line 2: expected a JSON object, got list"),
            ('"text"', "line 2: expected a JSON object, got str"),
            (
                '{"prompt": [3], "chosen": [4], "rejected": [5], "rejected_scores": ["a"]}',
                "line 2: field 'rejected_scores' must be a list of numbers",
            ),
            (
                '{"prompt": [3], "chosen": [4], "rejected": [5], "rejected_scores": 0.5}',
                "line 2: field 'rejected_scores' must be a list of numbers",
            ),
            ('{"prompt": [3], "chosen": [true], "rejected": [5]}', "line 2: field 'chosen'"),
            ("null", "line 2: expected a JSON object, got NoneType"),
        ],
    )
    def test_malformed_document_reports_line(self, tmp_path, line, match):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"prompt": [3], "chosen": [4], "rejected": [5]}\n' + line + "\n")
        with pytest.raises(DataFormatError, match=match):
            D.load_jsonl(path)

    def test_non_utf8_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"prompt": [3], "chosen": [4], "rejected": [5]}\n\xff\xfe\n')
        with pytest.raises(DataFormatError, match="line 2: not UTF-8"):
            D.load_jsonl(path)

    def test_manifest_contents(self, task, tmp_path):
        path = tmp_path / "data.manifest.json"
        D.write_manifest(path, task, 10, "deterministic")
        doc = json.loads(path.read_text())
        assert doc["seed"] == task.seed
        assert doc["task"]["vocab_size"] == task.vocab.size
        assert doc["n_pairs"] == 10
