"""Unit tests for synthetic dataset generation and JSONL persistence."""

import json
import math

import numpy as np
import pytest

from preflab import data as D
from preflab.autodiff import sigmoid_values
from preflab.errors import DataFormatError, ValidationError
from preflab.lm import NGramPolicy, Vocab, token_logprobs
from preflab.seeds import child_rng


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

    @pytest.mark.parametrize("temperature", [math.nan, math.inf, -1.0, 0.0])
    def test_unusable_temperature_rejected(self, vocab, temperature):
        with pytest.raises(ValidationError, match="temperature"):
            D.BigramMatchTask(vocab=vocab, temperature=temperature)

    @pytest.mark.parametrize("penalty", [math.nan, math.inf, -math.inf])
    def test_non_finite_length_penalty_rejected(self, vocab, penalty):
        # NaN rewards always pick the second response; infinite ones tie every pair
        with pytest.raises(ValidationError, match="length_penalty must be finite"):
            D.BigramMatchTask(vocab=vocab, length_penalty=penalty)

    def test_background_must_be_finite(self, vocab):
        task = D.BigramMatchTask(vocab=vocab, temperature=1e-320)
        with pytest.raises(ValidationError, match="temperature"):
            D.generate_dataset(task, 2)

    @pytest.mark.parametrize(
        "reserved", [{}, {"bos": 7, "eos": 3, "pad": 11}, {"bos": 9, "eos": 0, "pad": 4}]
    )
    def test_background_covers_content_ids(self, reserved):
        vocab = Vocab(12, **reserved)
        task = D.BigramMatchTask(vocab=vocab)
        assert len(task.background_probs()) == len(vocab.content_ids())

    def test_vocab_without_content_rejected(self):
        with pytest.raises(ValidationError, match="no content tokens"):
            D.BigramMatchTask(vocab=Vocab(3))

    @pytest.mark.parametrize("max_len,n_pairs", [(24, 64), (64, 128)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sampler_matches_rng_choice(self, vocab, tmp_path, monkeypatch, max_len, n_pairs, seed):
        # the reference draws every background token with rng.choice, which
        # re-validates p per call; the sampler must reproduce its stream
        def choice_sample_response(task, prompt, rng, _cdf):
            background = task.background_probs()
            content = task.vocab.content_ids()
            u, v = task.target_bigram(prompt)
            length = int(rng.integers(task.min_len, task.max_len + 1))
            out = [int(content[rng.choice(len(content), p=background)])]
            for _ in range(length - 1):
                if rng.random() < task.bigram_rate:
                    out.append(v if out[-1] == u else u)
                else:
                    out.append(int(content[rng.choice(len(content), p=background)]))
            return tuple(out)

        task = D.BigramMatchTask(vocab=vocab, max_len=max_len, seed=seed)
        fast, slow = tmp_path / "fast.jsonl", tmp_path / "slow.jsonl"
        for labeling in ("deterministic", "bt"):
            D.save_jsonl(D.generate_dataset(task, n_pairs, labeling), fast)
            with monkeypatch.context() as m:
                m.setattr(D, "_sample_response", choice_sample_response)
                D.save_jsonl(D.generate_dataset(task, n_pairs, labeling), slow)
            assert fast.read_bytes() == slow.read_bytes()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_draws_map_to_content_ids_as_tuple_indexing_does(self, tmp_path, monkeypatch, seed):
        # reserved ids at random places; the reference indexes the
        # content_ids() tuple, and the generated bytes must not move
        rng = np.random.default_rng(seed)
        bos, eos, pad = (int(r) for r in rng.choice(12, 3, replace=False))
        task = D.BigramMatchTask(vocab=Vocab(12, bos=bos, eos=eos, pad=pad), seed=seed)
        fast, slow = tmp_path / "fast.jsonl", tmp_path / "slow.jsonl"
        D.save_jsonl(D.generate_dataset(task, 64), fast)
        with monkeypatch.context() as m:
            m.setattr(Vocab, "content_id", lambda self, i: int(self.content_ids()[i]))
            D.save_jsonl(D.generate_dataset(task, 64), slow)
        assert fast.read_bytes() == slow.read_bytes()

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


def _attach_scores_with(monkeypatch, pos, neg, pairs, vocab):
    # hand attach_scores the given auxiliary policies in place of its seeded draws
    policies = {"scores_pos": pos, "scores_neg": neg}
    monkeypatch.setattr(D, "child_rng", lambda _seed, label: label)
    monkeypatch.setattr(
        D, "NGramPolicy", type("Fixed", (), {"random": staticmethod(lambda _v, _o, label: policies[label])})
    )
    D.attach_scores(pairs, vocab, seed=0)


class TestTokenScores:
    def test_identical_policies_give_half(self, vocab, task, monkeypatch):
        pair = D.generate_dataset(task, 1)[0]
        policy = NGramPolicy.random(vocab, 2, np.random.default_rng(2))
        _attach_scores_with(monkeypatch, policy, policy, [pair], vocab)
        scores = pair.rejected_scores
        assert np.allclose(scores, 0.5, atol=1e-15)
        assert scores.shape == (len(pair.rejected),)

    def test_hand_built_log_ratio(self, vocab, monkeypatch):
        # neg raises one bigram logit by ln 3; the score is sigmoid of the renormalised log ratio
        uniform = np.zeros((vocab.size, vocab.size))
        pos = NGramPolicy(vocab, 2, uniform)
        boosted = uniform.copy()
        boosted[3, 4] = math.log(3.0)
        neg = NGramPolicy(vocab, 2, boosted)
        pair = D.PreferencePair(prompt=(5, 3), chosen=(6, 6), rejected=(4, 5))
        _attach_scores_with(monkeypatch, pos, neg, [pair], vocab)
        scores = pair.rejected_scores
        lp_pos = pos.conditional_row((5, 3), ())[4]
        lp_neg = neg.conditional_row((5, 3), ())[4]
        assert scores[0] == pytest.approx(float(sigmoid_values(lp_neg - lp_pos)), abs=1e-12)
        assert np.all((scores > 0) & (scores < 1))

    def test_attach_scores_match_token_log_ratios(self, vocab, task):
        # s_j = sigmoid(log pi_neg - log pi_pos), scored side by side as the
        # two seeded auxiliary bigrams score one pair at a time
        pairs = D.generate_dataset(task, 10)
        D.attach_scores(pairs, vocab, seed=3)
        pos = NGramPolicy.random(vocab, 2, child_rng(3, "scores_pos"))
        neg = NGramPolicy.random(vocab, 2, child_rng(3, "scores_neg"))
        for pair in pairs:
            lp_pos = token_logprobs(pos, pair.prompt, pair.rejected)
            lp_neg = token_logprobs(neg, pair.prompt, pair.rejected)
            assert np.array_equal(pair.rejected_scores, sigmoid_values(lp_neg - lp_pos))

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


class TestCheckDataset:
    @pytest.mark.parametrize("bad", [12, 10**6, -1, -(2**70), 2**70])
    @pytest.mark.parametrize("where", ["prompt", "chosen", "rejected"])
    def test_names_first_bad_pair(self, vocab, where, bad):
        pairs = [D.PreferencePair((3, 4), (4, 5), (5, 3)) for _ in range(7)]
        sides = {"prompt": (3, 4), "chosen": (4, 5), "rejected": (5, 3), where: (3, bad)}
        pairs[4] = D.PreferencePair(**sides)
        D.check_dataset(pairs[:4] + pairs[5:], vocab)
        with pytest.raises(ValidationError) as info:
            D.check_dataset(pairs, vocab)
        assert str(info.value) == f"pair 4: token id {bad} out of range for vocab size {vocab.size}"


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
