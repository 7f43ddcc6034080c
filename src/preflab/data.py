"""Synthetic preference datasets with known ground-truth rewards.

The default task rewards occurrences of a prompt-determined bigram minus
a small length penalty, which is separable enough that every loss in this
package reaches high pairwise accuracy within seconds of training.
Datasets round-trip losslessly through JSONL, one pair per line. A
generated file has no header: the manifest that ``gen-data`` writes beside
it is the resolved config that made it (``config.write_resolved``).
``check_scores`` is the one check of a rejected side's scores.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import sigmoid_values
from .errors import DataFormatError, ValidationError, at_least_one
from .lm import NGramPolicy, TokenIdError, TokenSeq, Vocab, id_stream, row_logprobs
from .seeds import child_rng

LABELINGS = ("deterministic", "bt")
# Most tokens a generated dataset may need: a prompt of prompt_len tokens
# and two responses of up to max_len tokens per pair. Checked in integer
# arithmetic before any draw, since the generator builds every prompt and
# response token by token.
MAX_TOKENS = 1 << 24


@dataclass
class PreferencePair:
    prompt: TokenSeq
    chosen: TokenSeq
    rejected: TokenSeq
    rejected_scores: np.ndarray | None = None

    def __post_init__(self):
        self.prompt = tuple(map(int, self.prompt))
        self.chosen = tuple(map(int, self.chosen))
        self.rejected = tuple(map(int, self.rejected))
        if not self.prompt or not self.chosen or not self.rejected:
            raise ValidationError("prompt, chosen, and rejected must be non-empty")
        if self.chosen == self.rejected:
            raise ValidationError("chosen and rejected responses are identical")
        if self.rejected_scores is not None:
            self.rejected_scores = check_scores(self.rejected_scores, len(self.rejected))


def check_scores(scores, n_rejected: int) -> np.ndarray:
    """One rejected side's scores as float64: one per rejected token, each in
    [0, 1] (so not NaN), or ValidationError."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (n_rejected,):
        raise ValidationError(
            f"got scores of shape {scores.shape} for {n_rejected} rejected tokens"
        )
    inside = (scores >= 0.0) & (scores <= 1.0)
    if not inside.all():
        raise ValidationError(f"score {scores[inside.argmin()]} outside [0, 1]")
    return scores


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
        # the generator draws a length in [min_len, max_len] as an int64
        if self.max_len > np.iinfo(np.int64).max:
            raise ValidationError(f"max_len {self.max_len} does not fit in int64")
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
        # normalized in place: one array of n_content floats, whatever the vocab
        probs = rng.standard_normal(self.vocab.n_content)
        # a temperature near zero overflows the scaled logits to inf - inf
        with np.errstate(over="ignore", invalid="ignore"):
            probs /= self.temperature
            probs -= np.max(probs)
            np.exp(probs, out=probs)
            probs /= np.sum(probs)
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
    at_least_one(n_pairs=n_pairs)
    if labeling not in LABELINGS:
        raise ValidationError(f"unknown labeling {labeling!r}")
    worst = n_pairs * (task.prompt_len + 2 * task.max_len)
    if worst > MAX_TOKENS:
        raise ValidationError(
            f"{n_pairs} pairs of a {task.prompt_len}-token prompt and two responses "
            f"up to {task.max_len} tokens may need {worst} tokens, more than {MAX_TOKENS}"
        )
    rng = child_rng(task.seed, "data")
    probs = task.background_probs()
    cdf = np.cumsum(probs, out=probs)  # into the same array: no second vocab-sized copy
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


def _int_list(doc: dict, name: str, lineno: int) -> list[int]:
    if name not in doc:
        raise DataFormatError(f"line {lineno}: missing required field {name!r}")
    value = doc[name]
    # one pass over the types: bool and float ids are not ints here
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise DataFormatError(f"line {lineno}: field {name!r} must be a list of ints")
    return value


def _scores(doc: dict, lineno: int) -> list | None:
    value = doc.get("rejected_scores")
    if value is None:
        return None
    if not isinstance(value, list) or not set(map(type, value)) <= {int, float}:
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


def check_dataset(pairs: list[PreferencePair], vocab: Vocab) -> None:
    """Validate every token id against the vocab (``lm.id_stream`` over each
    pair's prompt, chosen and rejected); the first bad id names its pair."""
    try:
        id_stream(vocab, [side for p in pairs for side in (p.prompt, p.chosen, p.rejected)])
    except TokenIdError as err:
        raise ValidationError(f"pair {err.seq // 3}: {err}") from err
