"""Synthetic preference datasets with known ground-truth rewards.

The default task rewards occurrences of a prompt-determined bigram minus
a small length penalty, which is separable enough that every loss in this
package reaches high pairwise accuracy within seconds of training.
Datasets round-trip losslessly through JSONL, one pair per line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .autodiff import sigmoid_values
from .errors import DataFormatError, ValidationError
from .lm import NGramPolicy, TokenSeq, Vocab, check_tokens, row_logprobs
from .seeds import child_rng

LABELINGS = ("deterministic", "bt")


@dataclass
class PreferencePair:
    prompt: TokenSeq
    chosen: TokenSeq
    rejected: TokenSeq
    rejected_scores: np.ndarray | None = None

    def __post_init__(self):
        self.prompt = tuple(int(t) for t in self.prompt)
        self.chosen = tuple(int(t) for t in self.chosen)
        self.rejected = tuple(int(t) for t in self.rejected)
        if not self.prompt or not self.chosen or not self.rejected:
            raise ValidationError("prompt, chosen, and rejected must be non-empty")
        if self.chosen == self.rejected:
            raise ValidationError("chosen and rejected responses are identical")
        if self.rejected_scores is not None:
            scores = np.asarray(self.rejected_scores, dtype=np.float64)
            if scores.shape != (len(self.rejected),):
                raise ValidationError(
                    f"{scores.size} rejected_scores for "
                    f"{len(self.rejected)} rejected tokens"
                )
            if not np.all((scores >= 0.0) & (scores <= 1.0)):
                raise ValidationError("rejected_scores must lie in [0, 1]")
            self.rejected_scores = scores


@dataclass(frozen=True)
class BigramMatchTask:
    """Reward = #occurrences of the prompt's bigram in y, minus
    length_penalty * len(y).

    The response generator emits the prompt bigram with probability
    ``bigram_rate`` per step and otherwise draws from a per-task background
    distribution over content tokens (logits scaled by 1/temperature), so
    bigram counts vary informatively across responses.
    """

    vocab: Vocab
    prompt_len: int = 2
    min_len: int = 4
    max_len: int = 24
    length_penalty: float = 0.05
    bigram_rate: float = 0.5
    temperature: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.prompt_len < 2:
            raise ValidationError("prompt_len must be >= 2 (the bigram source)")
        if not (1 <= self.min_len <= self.max_len):
            raise ValidationError(
                f"bad response length range [{self.min_len}, {self.max_len}]"
            )
        if not math.isfinite(self.length_penalty):
            raise ValidationError(f"length_penalty must be finite, got {self.length_penalty}")
        if not (0.0 <= self.bigram_rate <= 1.0):
            raise ValidationError(f"bigram_rate {self.bigram_rate} outside [0, 1]")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValidationError(
                f"temperature must be finite and positive, got {self.temperature}"
            )
        if not self.vocab.n_content:
            raise ValidationError("vocab has no content tokens")

    def target_bigram(self, prompt: TokenSeq) -> tuple[int, int]:
        return (prompt[0], prompt[1])

    def reward(self, prompt, response) -> float:
        u, v = self.target_bigram(tuple(prompt))
        response = tuple(response)
        count = 0
        for i in range(len(response) - 1):
            if response[i] == u and response[i + 1] == v:
                count += 1
        return count - self.length_penalty * len(response)

    def background_probs(self) -> np.ndarray:
        """Token distribution used when the generator is not emitting the
        target bigram; deterministic per task seed."""
        rng = child_rng(self.seed, "task")
        bias = rng.standard_normal(self.vocab.n_content)
        # a temperature near zero overflows the scaled logits to inf - inf
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = bias / self.temperature
            weights = np.exp(scaled - np.max(scaled))
            probs = weights / np.sum(weights)
        if not (np.all(np.isfinite(probs)) and abs(float(np.sum(probs)) - 1.0) <= 1e-8):
            raise ValidationError(
                f"temperature {self.temperature} gives no finite background distribution"
            )
        return probs


def _sample_response(task: BigramMatchTask, prompt, rng, cdf) -> TokenSeq:
    """One response. Each background token is content id i for the draw i
    of ``rng.choice(len(cdf), p=background)``, made as ``choice`` makes it
    (one ``rng.random()`` located in the cumulative table ``cdf``) but
    without re-validating ``p`` on every token."""
    u, v = task.target_bigram(prompt)
    content_id = task.vocab.content_id
    length = int(rng.integers(task.min_len, task.max_len + 1))
    out = [content_id(cdf.searchsorted(rng.random(), side="right"))]
    for _ in range(length - 1):
        if rng.random() < task.bigram_rate:
            out.append(v if out[-1] == u else u)
        else:
            out.append(content_id(cdf.searchsorted(rng.random(), side="right")))
    return tuple(out)


def bt_preference(rng, r_first: float, r_second: float) -> bool:
    """True when the first response wins a Bradley-Terry draw."""
    return bool(rng.random() < sigmoid_values(r_first - r_second))


def generate_dataset(
    task: BigramMatchTask, n_pairs: int, labeling: str = "deterministic"
) -> list[PreferencePair]:
    """Sample prompts and response pairs, then label by reward.

    deterministic: the higher-reward response is chosen, reward ties
    broken by a fair coin. bt: the first response wins with probability
    sigmoid(reward difference).
    """
    if n_pairs < 1:
        raise ValidationError(f"n_pairs must be >= 1, got {n_pairs}")
    if labeling not in LABELINGS:
        raise ValidationError(f"unknown labeling {labeling!r}")
    rng = child_rng(task.seed, "data")
    cdf = np.cumsum(task.background_probs())
    cdf /= cdf[-1]
    vocab = task.vocab
    pairs = []
    for _ in range(n_pairs):
        prompt = tuple(
            vocab.content_id(rng.integers(vocab.n_content)) for _ in range(task.prompt_len)
        )
        first = _sample_response(task, prompt, rng, cdf)
        second = _sample_response(task, prompt, rng, cdf)
        while second == first:
            second = _sample_response(task, prompt, rng, cdf)
        r_first = task.reward(prompt, first)
        r_second = task.reward(prompt, second)
        if labeling == "bt":
            first_wins = bt_preference(rng, r_first, r_second)
        elif r_first != r_second:
            first_wins = r_first > r_second
        else:
            first_wins = bool(rng.random() < 0.5)
        chosen, rejected = (first, second) if first_wins else (second, first)
        pairs.append(PreferencePair(prompt=prompt, chosen=chosen, rejected=rejected))
    return pairs


def attach_scores(pairs: list[PreferencePair], vocab: Vocab, seed: int) -> None:
    """Attach criticality scores in (0, 1) to every rejected token.

    s_j = sigmoid(log pi_neg - log pi_pos) under two seeded auxiliary bigram
    policies: high when the negative model favors the token relative to the
    positive one. Both score the rows of every rejected side at once.
    """
    pos = NGramPolicy.random(vocab, 2, child_rng(seed, "scores_pos"))
    neg = NGramPolicy.random(vocab, 2, child_rng(seed, "scores_neg"))
    rows, targets = pos.stacked_rows([p.prompt for p in pairs], [p.rejected for p in pairs])
    scores = sigmoid_values(row_logprobs(neg, rows, targets) - row_logprobs(pos, rows, targets))
    stops = np.cumsum([len(p.rejected) for p in pairs])
    for pair, side_scores in zip(pairs, np.split(scores, stops[:-1])):
        pair.rejected_scores = side_scores


# ---------------------------------------------------------------------------
# JSONL persistence
# ---------------------------------------------------------------------------


def _pair_to_doc(pair: PreferencePair) -> dict:
    doc = {
        "prompt": list(pair.prompt),
        "chosen": list(pair.chosen),
        "rejected": list(pair.rejected),
    }
    if pair.rejected_scores is not None:
        doc["rejected_scores"] = [float(s) for s in pair.rejected_scores]
    return doc


def save_jsonl(pairs: list[PreferencePair], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(json.dumps(_pair_to_doc(pair), sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def _int_list(doc: dict, name: str, lineno: int) -> tuple[int, ...]:
    if name not in doc:
        raise DataFormatError(f"line {lineno}: missing required field {name!r}")
    value = doc[name]
    if not isinstance(value, list) or not all(type(t) is int for t in value):
        raise DataFormatError(f"line {lineno}: field {name!r} must be a list of ints")
    return tuple(value)


def _scores(doc: dict, lineno: int) -> list | None:
    value = doc.get("rejected_scores")
    if value is None:
        return None
    if not isinstance(value, list) or not all(type(s) in (int, float) for s in value):
        raise DataFormatError(f"line {lineno}: field 'rejected_scores' must be a list of numbers")
    return value


def load_jsonl(path) -> list[PreferencePair]:
    """Parse one JSON object per line; an empty file is an empty dataset."""
    pairs = []
    try:
        fh = open(path, "rb")
    except OSError as err:
        raise ValidationError(f"cannot read dataset {path}: {err.strerror}") from err
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                doc = json.loads(raw.decode("utf-8"))
            except UnicodeDecodeError as err:
                raise DataFormatError(f"line {lineno}: not UTF-8 text ({err.reason})") from err
            except json.JSONDecodeError as err:
                raise DataFormatError(f"line {lineno}: invalid JSON ({err.msg})") from err
            if not isinstance(doc, dict):
                raise DataFormatError(
                    f"line {lineno}: expected a JSON object, got {type(doc).__name__}"
                )
            fields = [_int_list(doc, name, lineno) for name in ("prompt", "chosen", "rejected")]
            scores = _scores(doc, lineno)
            try:
                pairs.append(PreferencePair(*fields, rejected_scores=scores))
            except ValidationError as err:
                raise DataFormatError(f"line {lineno}: {err}") from err
    return pairs


def write_manifest(path, task: BigramMatchTask, n_pairs: int, labeling: str) -> None:
    """Generation manifest recording the task parameters and seed."""
    params = {f.name: getattr(task, f.name) for f in fields(task)}
    vocab, seed = params.pop("vocab"), params.pop("seed")
    doc = {
        "task": {"kind": "bigram_match", "vocab_size": vocab.size, **params},
        "seed": seed,
        "n_pairs": n_pairs,
        "labeling": labeling,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def check_dataset(pairs: list[PreferencePair], vocab: Vocab) -> None:
    """Validate every token id against the vocab in one vectorized check;
    only when it fails are the pairs walked, to name the first bad one."""
    sides = (side for p in pairs for side in (p.prompt, p.chosen, p.rejected))
    try:
        ids = np.fromiter(chain.from_iterable(sides), dtype=np.intp)
        if not np.any((ids < 0) | (ids >= vocab.size)):
            return
    except OverflowError:  # an id beyond the machine's integers, named below
        pass
    for i, pair in enumerate(pairs):
        try:
            check_tokens(vocab, pair.prompt)
            check_tokens(vocab, pair.chosen)
            check_tokens(vocab, pair.rejected)
        except ValidationError as err:
            raise ValidationError(f"pair {i}: {err}") from err
