"""Tiny autoregressive policies.

Two model families: a tabular n-gram policy (closed-form and enumerable,
which the brute-force checks rely on) and a small windowed neural model
(embedding -> tanh hidden layer -> vocab logits) for the trainer. A kind
is its row encoding, ``stacked_rows`` (one context row and target id per
response position), and its forward, ``rows_forward`` (log pi(target |
row) as a graph node). All scoring is written once, below, and bound in
both classes. Conditional rows always go through log-softmax, so they
normalize by construction and every conditional probability is strictly
positive.

Prompt tokens are never scored; only response tokens produce
log-probabilities. Every model conditions on a fixed-width window of the
ids before each response position, BOS-filled where the window starts
before its side. ``side_windows`` builds the windows of any number of
sides (a prompt and a response each) in one pass over one id stream, with
one vectorized bounds check; the neural model reads the windows as they
are, the n-gram reads each window's base-v code as its table row.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import ValidationError

TokenSeq = tuple[int, ...]

# Largest n-gram logit table, in float64 entries (128 MiB).
MAX_NGRAM_ENTRIES = 1 << 24
# Largest neural model, in float64 parameters (128 MiB).
MAX_NEURAL_PARAMS = 1 << 24
# Largest vocab: no model kind fits a larger one within the bounds above.
MAX_VOCAB = 1 << 24


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
        if self.size > MAX_VOCAB:
            raise ValidationError(f"vocab size must be <= {MAX_VOCAB}, got {self.size}")
        reserved = (self.bos, self.eos, self.pad)
        if len(set(reserved)) != 3:
            raise ValidationError(f"reserved ids must be distinct, got {reserved}")
        for rid in reserved:
            if not (0 <= rid < self.size):
                raise ValidationError(
                    f"reserved id {rid} outside vocab of size {self.size}"
                )

    @property
    def n_content(self) -> int:
        """``len(content_ids())``: the three reserved ids are distinct and in range."""
        return self.size - 3

    def content_ids(self) -> tuple[int, ...]:
        """Ids that are neither BOS, EOS, nor PAD."""
        reserved = {self.bos, self.eos, self.pad}
        return tuple(i for i in range(self.size) if i not in reserved)

    def content_id(self, index: int) -> int:
        """``content_ids()[index]`` for 0 <= index < n_content, without
        building the tuple: step past each reserved id at or below the
        running id, in ascending order."""
        index = int(index)
        for rid in self._reserved_ascending:
            index += index >= rid
        return index

    @cached_property
    def _reserved_ascending(self) -> tuple[int, ...]:
        return tuple(sorted((self.bos, self.eos, self.pad)))


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


def _lengths(sides) -> np.ndarray:
    return np.fromiter(map(len, sides), dtype=np.intp, count=len(sides))


def side_windows(vocab: Vocab, width: int, prompts, responses) -> tuple[np.ndarray, np.ndarray]:
    """The ``width`` ids before every response position of every side, and
    the id at that position, stacked side by side.

    Side s is ``prompts[s]`` followed by ``responses[s]``: two lists of id
    sequences, or two 2-D id arrays for sides of equal lengths. Its windows
    are BOS-filled where they start before the side. Every id is checked
    once, in side order, prompt before response; the first out of range
    raises TokenIdError.
    """
    if isinstance(responses, np.ndarray):
        n = len(responses)
        p_len, r_len = np.full(n, prompts.shape[1]), np.full(n, responses.shape[1])
        fill = np.full((n, width), vocab.bos)
        stream = np.concatenate([fill, prompts, responses], axis=1, dtype=np.intp).reshape(-1)
    else:
        p_len, r_len = _lengths(prompts), _lengths(responses)
        fill = (vocab.bos,) * width
        ids = chain.from_iterable(x for side in zip(prompts, responses) for x in (fill, *side))
        count = int(width * len(p_len) + p_len.sum() + r_len.sum())
        try:
            stream = np.fromiter(ids, dtype=np.intp, count=count)
        except OverflowError:  # an id beyond the machine's integers: name it
            for seq in chain.from_iterable(zip(prompts, responses)):
                check_tokens(vocab, seq)
            raise
    bad = (stream < 0) | (stream >= vocab.size)
    if bad.any():
        raise TokenIdError(int(stream[bad][0]), vocab.size)
    # stream: (width BOS, prompt, response) per side; position i of a side's
    # response has its window at stream[first : first + width]
    ends = np.cumsum(width + p_len + r_len)
    skip = ends - np.cumsum(r_len) - width
    first = np.arange(int(r_len.sum())) + np.repeat(skip, r_len)
    shape = (max(stream.size - width + 1, 0), width)
    windows = np.lib.stride_tricks.as_strided(stream, shape, stream.strides * 2, writeable=False)
    return windows[first], stream[first + width]


def context_rows(policy, prompt: Sequence[int], response: Sequence[int]):
    """Row encoding and target id of every position of one response."""
    return policy.stacked_rows([prompt], [response])


def row_logprobs(policy, rows, targets) -> np.ndarray:
    """log pi(targets[i] | rows[i]) for every i, untracked: the policy's
    ``rows_forward`` on a throwaway graph per block of ``policy.block_rows``
    rows (None: the whole stack in one call), so untracked values are
    bit-identical to the tracked training path. Each block's graph is
    dropped before the next starts; the remainder joins the last block, so
    no block is shorter than ``block_rows`` unless the whole stack is."""
    n = len(targets)
    if n == 0:
        return np.zeros(0)
    size = policy.block_rows or n
    bounds = [i * size for i in range(max(n // size, 1))] + [n]
    out = np.empty(n)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        graph = ad.Graph()
        leaves = {name: graph.leaf(value) for name, value in policy.params.items()}
        out[lo:hi] = policy.rows_forward(graph, leaves, rows[lo:hi], targets[lo:hi]).value
    return out


def vocab_logprobs(policy, rows) -> np.ndarray:
    """(rows, vocab) table of log pi(t | row) for every row and every id t."""
    size = policy.vocab.size
    targets = np.tile(np.arange(size), len(rows))
    return row_logprobs(policy, np.repeat(rows, size, axis=0), targets).reshape(-1, size)


def conditional_row(policy, prompt: Sequence[int], prefix: Sequence[int]) -> np.ndarray:
    """Log-probability row over the vocab for the token after ``prefix``: the
    last context row of ``prefix`` plus any token, scored for every id."""
    rows, _ = context_rows(policy, prompt, tuple(prefix) + (policy.vocab.bos,))
    return vocab_logprobs(policy, rows[-1:])[0]


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
    # untracked scoring forwards the whole stack at once: every forward
    # log-normalizes the entire table, whatever the number of rows
    block_rows = None

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

    def stacked_rows(self, prompts, responses) -> tuple[np.ndarray, np.ndarray]:
        """Table row (the base-v code of the context window) and target id of
        every response position of every side, stacked (see side_windows)."""
        width = self.order - 1
        windows, targets = side_windows(self.vocab, width, prompts, responses)
        powers = self.vocab.size ** np.arange(width - 1, -1, -1, dtype=np.intp)
        return windows @ powers, targets

    def rows_forward(self, graph: ad.Graph, leaves, rows, targets) -> ad.Node:
        table = ad.log_softmax(leaves["logits"], axis=1)
        picked = ad.embed_lookup(table, rows)
        return ad.gather(picked, targets)

    context_rows = context_rows
    row_logprobs = row_logprobs
    conditional_row = conditional_row


def neural_param_count(vocab: Vocab, context: int, embed_dim: int, hidden_dim: int) -> int:
    """Parameter count of a neural model, checked against MAX_NEURAL_PARAMS
    in integer arithmetic before anything is allocated."""
    widths = {"context": context, "embed_dim": embed_dim, "hidden_dim": hidden_dim}
    for name, value in widths.items():
        if value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")
    v, c, e, h = (int(n) for n in (vocab.size, context, embed_dim, hidden_dim))
    count = v * e + c * e * h + h + h * v + v
    if count > MAX_NEURAL_PARAMS:
        raise ValidationError(
            f"a neural model with vocab {v}, context {c}, embed_dim {e} and "
            f"hidden_dim {h} needs {count} parameters, more than {MAX_NEURAL_PARAMS}"
        )
    return count


class NeuralPolicy:
    """Windowed neural policy: embeddings -> tanh hidden -> vocab logits.

    Conditions on the last ``context`` tokens of (prompt ++ response
    prefix), BOS-filled on the left, rather than on full attention; the
    theory only needs autoregressive conditionals and the window keeps
    everything enumerable and fast.
    """

    kind = "neural"
    # untracked scoring forwards blocks of at least this many rows, so memory
    # is bounded by the block, not the stack. OpenBLAS switches to a
    # small-matrix kernel below about 1e6 multiply-adds; at 2,048 rows the
    # output product of a 48-wide hidden layer over 12 tokens stays above
    # that, so blocks equal a one-graph forward bit for bit at that shape
    # (narrower models may move in the last bit)
    block_rows = 2048

    def __init__(
        self,
        vocab: Vocab,
        context: int,
        embed_dim: int,
        hidden_dim: int,
        params: dict[str, np.ndarray],
        frozen=False,
    ):
        neural_param_count(vocab, context, embed_dim, hidden_dim)
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
        unknown = sorted(self.params.keys() - expected.keys())
        if unknown:
            raise ValidationError(f"a neural model has no parameter {unknown[0]!r}")

    @classmethod
    def init(
        cls,
        vocab: Vocab,
        rng: np.random.Generator,
        context: int = 8,
        embed_dim: int = 8,
        hidden_dim: int = 32,
    ) -> "NeuralPolicy":
        neural_param_count(vocab, context, embed_dim, hidden_dim)

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

    def stacked_rows(self, prompts, responses) -> tuple[np.ndarray, np.ndarray]:
        """Context window and target id of every response position of every
        side, stacked (see side_windows)."""
        return side_windows(self.vocab, self.context, prompts, responses)

    def rows_forward(self, graph: ad.Graph, leaves, rows, targets) -> ad.Node:
        emb = ad.embed_lookup(leaves["emb"], rows)
        flat = ad.reshape(emb, (rows.shape[0], self.context * self.embed_dim))
        hidden = ad.tanh(ad.add_bias(ad.matmul(flat, leaves["w1"]), leaves["b1"]))
        logits = ad.add_bias(ad.matmul(hidden, leaves["w2"]), leaves["b2"])
        return ad.gather(ad.log_softmax(logits, axis=1), targets)

    context_rows = context_rows
    row_logprobs = row_logprobs
    conditional_row = conditional_row


Policy = NGramPolicy | NeuralPolicy


def token_logprobs(policy: Policy, prompt, response) -> np.ndarray:
    """Per-token conditional log-probabilities of the response."""
    return row_logprobs(policy, *context_rows(policy, prompt, response))


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
    # json.dumps runs the C encoder; json.dump the pure-Python one (same bytes)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
        policy = NGramPolicy(vocab, hyper["order"], params["logits"])
    elif doc["kind"] == "neural":
        policy = NeuralPolicy(
            vocab, hyper["context"], hyper["embed_dim"], hyper["hidden_dim"], params
        )
    else:
        raise ValidationError(f"unknown model kind {doc['kind']!r}")
    # a name the kind does not define would be dropped, or trained and saved
    for section, known in (("hyper", policy.hyper), ("params", policy.params)):
        unknown = sorted(doc[section].keys() - known.keys())
        if unknown:
            raise ValueError(f"{policy.kind} models define no {section} entry {unknown[0]!r}")
    return policy
