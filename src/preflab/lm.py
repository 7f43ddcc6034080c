"""Tiny autoregressive policies.

Two model families share one evaluation contract: a tabular n-gram policy
(closed-form and enumerable, which the brute-force checks rely on) and a
small windowed neural model (embedding -> tanh hidden layer -> vocab
logits) for the trainer. Conditional rows always go through log-softmax,
so they normalize by construction and every conditional probability is
strictly positive.

Prompt tokens are never scored; only response tokens produce
log-probabilities.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import ValidationError

TokenSeq = tuple[int, ...]

# Largest n-gram logit table, in float64 entries (128 MiB).
MAX_NGRAM_ENTRIES = 1 << 24


@dataclass(frozen=True)
class Vocab:
    """Token alphabet with reserved BOS/EOS/PAD ids (PAD distinct from EOS)."""

    size: int
    bos: int = 0
    eos: int = 1
    pad: int = 2

    def __post_init__(self):
        if self.size < 3:
            raise ValidationError(f"vocab size must be >= 3, got {self.size}")
        reserved = (self.bos, self.eos, self.pad)
        if len(set(reserved)) != 3:
            raise ValidationError(f"reserved ids must be distinct, got {reserved}")
        for rid in reserved:
            if not (0 <= rid < self.size):
                raise ValidationError(
                    f"reserved id {rid} outside vocab of size {self.size}"
                )

    def content_ids(self) -> tuple[int, ...]:
        """Ids that are neither BOS, EOS, nor PAD."""
        reserved = {self.bos, self.eos, self.pad}
        return tuple(i for i in range(self.size) if i not in reserved)


class TokenIdError(ValidationError):
    """A token id fell outside the vocabulary."""

    def __init__(self, token: int, size: int):
        super().__init__(f"token id {token} out of range for vocab size {size}")
        self.token = token
        self.size = size


def check_tokens(vocab: Vocab, tokens: Sequence[int]) -> TokenSeq:
    out = tuple(int(t) for t in tokens)
    for t in out:
        if not (0 <= t < vocab.size):
            raise TokenIdError(t, vocab.size)
    return out


def _conditional_row(policy, prompt: Sequence[int], prefix: Sequence[int]) -> np.ndarray:
    """Log-probability row over the vocab for the token after ``prefix``: the
    last context row of ``prefix`` plus any token, scored for every id."""
    rows, _ = policy.context_rows(prompt, tuple(prefix) + (policy.vocab.bos,))
    size = policy.vocab.size
    return policy.row_logprobs(np.repeat(rows[-1:], size, axis=0), np.arange(size))


def ngram_table_shape(vocab: Vocab, order: int) -> tuple[int, int]:
    """(contexts, vocab) shape of an order-n logit table, checked against
    MAX_NGRAM_ENTRIES in integer arithmetic before anything is allocated."""
    if order < 1:
        raise ValidationError(f"n-gram order must be >= 1, got {order}")
    rows = 1
    for _ in range(order - 1):
        rows *= vocab.size
        if rows > MAX_NGRAM_ENTRIES:  # reached within log_3(MAX_NGRAM_ENTRIES) rounds
            break
    if rows * vocab.size > MAX_NGRAM_ENTRIES:
        raise ValidationError(
            f"an order-{order} n-gram over {vocab.size} tokens needs more than "
            f"{MAX_NGRAM_ENTRIES} table entries"
        )
    return rows, vocab.size


class NGramPolicy:
    """Tabular order-n policy: one logit row per length-(n-1) context."""

    kind = "ngram"

    def __init__(self, vocab: Vocab, order: int, logits: np.ndarray, frozen=False):
        expected = ngram_table_shape(vocab, order)
        logits = np.asarray(logits, dtype=np.float64)
        if logits.shape != expected:
            raise ValidationError(
                f"n-gram logits shape {logits.shape} != expected {expected}"
            )
        self.vocab = vocab
        self.order = order
        self.params = {"logits": logits}
        self.frozen = frozen

    @classmethod
    def uniform(cls, vocab: Vocab, order: int = 2) -> "NGramPolicy":
        return cls(vocab, order, np.zeros(ngram_table_shape(vocab, order)))

    @classmethod
    def random(
        cls, vocab: Vocab, order: int, rng: np.random.Generator, scale: float = 1.0
    ) -> "NGramPolicy":
        shape = ngram_table_shape(vocab, order)
        return cls(vocab, order, scale * rng.standard_normal(shape))

    @property
    def hyper(self) -> dict:
        return {"order": self.order}

    def context_rows(
        self, prompt: Sequence[int], response: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Context-row index and target id for every response position."""
        response = check_tokens(self.vocab, response)
        targets = np.asarray(response, dtype=np.intp)
        return self.batch_context_rows(prompt, targets[None, :])[0], targets

    def batch_context_rows(
        self, prompt: Sequence[int], responses: np.ndarray
    ) -> np.ndarray:
        """Context-row index of every position of equal-length responses.

        ``responses`` is an (n, T) id array; the row at position i depends
        only on the tokens before i, so columns past a shorter response's
        end may hold any valid id.
        """
        prompt = check_tokens(self.vocab, prompt)
        responses = np.asarray(responses, dtype=np.intp)
        bad = (responses < 0) | (responses >= self.vocab.size)
        if bad.any():
            raise TokenIdError(int(responses[bad][0]), self.vocab.size)
        n, length = responses.shape
        width = self.order - 1
        if width == 0 or length == 0:
            return np.zeros((n, length), dtype=np.intp)
        fill = np.asarray((self.vocab.bos,) * width + prompt, dtype=np.intp)
        history = np.concatenate([np.broadcast_to(fill, (n, fill.size)), responses], axis=1)
        windows = np.lib.stride_tricks.sliding_window_view(history, width, axis=1)
        powers = self.vocab.size ** np.arange(width - 1, -1, -1, dtype=np.intp)
        return windows[:, len(prompt) : len(prompt) + length] @ powers

    def rows_forward(self, graph: ad.Graph, leaves, rows, targets) -> ad.Node:
        table = ad.log_softmax(leaves["logits"], axis=1)
        picked = ad.embed_lookup(table, rows)
        return ad.gather(picked, targets)

    def row_logprobs(self, rows, targets) -> np.ndarray:
        table = ad.log_softmax_values(self.params["logits"], axis=1)
        return table[np.asarray(rows, dtype=np.intp), np.asarray(targets, dtype=np.intp)]

    conditional_row = _conditional_row


def _check_widths(context: int, embed_dim: int, hidden_dim: int) -> None:
    widths = {"context": context, "embed_dim": embed_dim, "hidden_dim": hidden_dim}
    for name, value in widths.items():
        if value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")


class NeuralPolicy:
    """Windowed neural policy: embeddings -> tanh hidden -> vocab logits.

    Conditions on the last ``context`` tokens of (prompt ++ response
    prefix), BOS-filled on the left, rather than on full attention; the
    theory only needs autoregressive conditionals and the window keeps
    everything enumerable and fast.
    """

    kind = "neural"

    def __init__(
        self,
        vocab: Vocab,
        context: int,
        embed_dim: int,
        hidden_dim: int,
        params: dict[str, np.ndarray],
        frozen=False,
    ):
        _check_widths(context, embed_dim, hidden_dim)
        self.vocab = vocab
        self.context = context
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        self.params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
        self.frozen = frozen
        expected = {
            "emb": (vocab.size, embed_dim),
            "w1": (context * embed_dim, hidden_dim),
            "b1": (hidden_dim,),
            "w2": (hidden_dim, vocab.size),
            "b2": (vocab.size,),
        }
        for name, shape in expected.items():
            if name not in self.params or self.params[name].shape != shape:
                got = self.params.get(name)
                raise ValidationError(
                    f"parameter {name!r} has shape "
                    f"{None if got is None else got.shape}, expected {shape}"
                )

    @classmethod
    def init(
        cls,
        vocab: Vocab,
        rng: np.random.Generator,
        context: int = 8,
        embed_dim: int = 8,
        hidden_dim: int = 32,
    ) -> "NeuralPolicy":
        _check_widths(context, embed_dim, hidden_dim)

        def uniform(shape):
            return rng.uniform(-0.1, 0.1, size=shape)

        params = {
            "emb": uniform((vocab.size, embed_dim)),
            "w1": uniform((context * embed_dim, hidden_dim)),
            "b1": np.zeros(hidden_dim),
            "w2": uniform((hidden_dim, vocab.size)),
            "b2": np.zeros(vocab.size),
        }
        return cls(vocab, context, embed_dim, hidden_dim, params)

    @property
    def hyper(self) -> dict:
        return {
            "context": self.context,
            "embed_dim": self.embed_dim,
            "hidden_dim": self.hidden_dim,
        }

    def context_rows(
        self, prompt: Sequence[int], response: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Context window and target id for every response position."""
        prompt = check_tokens(self.vocab, prompt)
        response = check_tokens(self.vocab, response)
        targets = np.asarray(response, dtype=np.intp)
        if not response:
            return np.zeros((0, self.context), dtype=np.intp), targets
        fill = (self.vocab.bos,) * self.context
        history = np.asarray(fill + prompt + response, dtype=np.intp)
        start = self.context + len(prompt)
        windows = np.lib.stride_tricks.sliding_window_view(history, self.context)
        rows = windows[start - self.context : start - self.context + len(response)]
        return np.ascontiguousarray(rows), targets

    def rows_forward(self, graph: ad.Graph, leaves, rows, targets) -> ad.Node:
        emb = ad.embed_lookup(leaves["emb"], rows)
        flat = ad.reshape(emb, (rows.shape[0], self.context * self.embed_dim))
        hidden = ad.tanh(ad.add_bias(ad.matmul(flat, leaves["w1"]), leaves["b1"]))
        logits = ad.add_bias(ad.matmul(hidden, leaves["w2"]), leaves["b2"])
        return ad.gather(ad.log_softmax(logits, axis=1), targets)

    def row_logprobs(self, rows, targets) -> np.ndarray:
        # evaluate through a throwaway graph so untracked values are
        # bit-identical to the tracked training path
        if len(targets) == 0:
            return np.zeros(0)
        graph = ad.Graph()
        leaves = {name: graph.leaf(value) for name, value in self.params.items()}
        node = self.rows_forward(graph, leaves, rows, targets)
        return node.value.copy()

    conditional_row = _conditional_row


Policy = NGramPolicy | NeuralPolicy


def token_logprobs(policy: Policy, prompt, response) -> np.ndarray:
    """Per-token conditional log-probabilities of the response."""
    if len(response) == 0:
        return np.zeros(0)
    rows, targets = policy.context_rows(prompt, response)
    return policy.row_logprobs(rows, targets)


def seq_logprob(policy: Policy, prompt, response) -> float:
    """Sequence log-probability: the sum of token_logprobs entries."""
    return float(np.sum(token_logprobs(policy, prompt, response)))


def clone_frozen(policy: Policy) -> Policy:
    """Deep-copied reference policy; training never touches the copy."""
    frozen = copy.deepcopy(policy)
    frozen.frozen = True
    return frozen


def save_checkpoint(policy: Policy, path, config_hash: str = "") -> None:
    doc = {
        "kind": policy.kind,
        "vocab": {
            "size": policy.vocab.size,
            "bos": policy.vocab.bos,
            "eos": policy.vocab.eos,
            "pad": policy.vocab.pad,
        },
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


def load_checkpoint(path) -> Policy:
    """Read a checkpoint; a malformed file raises ValidationError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ValidationError(f"cannot read checkpoint {path}: {err.strerror}") from err
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValidationError(f"checkpoint {path} is not valid JSON: {err}") from err
    try:
        return _policy_from_doc(doc)
    except KeyError as err:
        raise ValidationError(f"checkpoint {path} lacks key {err}") from err
    except (TypeError, ValueError, AttributeError) as err:
        raise ValidationError(f"checkpoint {path} is malformed: {err}") from err


def _policy_from_doc(doc) -> Policy:
    if not isinstance(doc, dict):
        raise TypeError("the root is not a JSON object")
    for section in ("vocab", "hyper"):
        if not all(type(v) is int for v in doc[section].values()):
            raise TypeError(f"{section!r} entries must be integers")
    vocab = Vocab(**doc["vocab"])
    hyper = doc["hyper"]
    params = {}
    for name, spec in doc["params"].items():
        shape, data = spec["shape"], spec["data"]
        if not (isinstance(shape, list) and all(type(n) is int for n in shape)):
            raise TypeError(f"parameter {name!r} shape must be a list of integers")
        if not (isinstance(data, list) and all(type(x) in (int, float) for x in data)):
            raise TypeError(f"parameter {name!r} data must be a list of numbers")
        params[name] = np.asarray(data, dtype=np.float64).reshape(shape)
        if not np.all(np.isfinite(params[name])):
            raise ValueError(f"parameter {name!r} holds non-finite values")
    if doc["kind"] == "ngram":
        return NGramPolicy(vocab, hyper["order"], params["logits"])
    if doc["kind"] == "neural":
        return NeuralPolicy(
            vocab, hyper["context"], hyper["embed_dim"], hyper["hidden_dim"], params
        )
    raise ValidationError(f"unknown model kind {doc['kind']!r}")
