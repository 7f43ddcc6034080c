"""Tiny autoregressive policies.

Two model families: a tabular n-gram policy (closed-form and enumerable,
which the brute-force checks rely on) and a small windowed neural model
(embedding -> tanh hidden layer -> vocab logits) for the trainer. A kind
is its ``KINDS`` entry, a class that declares its hyperparameters with
their defaults (``HYPER``), its parameter shapes (``shapes``), its initial
draw (``init``), its row encoding (``stacked_rows``: one context row and
target id per response position) and its forward: ``forward_values``
computes log pi(target | row) from the parameter arrays, and
``rows_forward`` records that as one graph node with a hand-derived
backward. The constructor, the ``hyper`` property and untracked scoring
are written once, below, and bound in both classes. Untracked scoring
builds no graph: it runs ``forward_values`` block by block, in a thread
pool over every CPU the process may use once each thread gets at least two
blocks; a block's arithmetic does not depend on the thread count, so
neither do its bytes.
Conditional rows always go through log-softmax, so they normalize by
construction and every conditional probability is strictly positive.

Prompt tokens are never scored; only response tokens produce
log-probabilities. Every model conditions on a fixed-width window of the
ids before each response position, BOS-filled where the window starts
before its side. ``side_windows`` builds the windows of any number of
sides (a prompt and a response each) in one pass over one id stream, with
the one token-id check (``id_stream``, which ``data.check_dataset`` also
uses), and stores them in the smallest unsigned type that holds a vocab
id; the neural model reads the windows as they are, the n-gram folds each
window through its state recursion ``step`` into its table row.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import ValidationError, at_least_one

TokenSeq = tuple[int, ...]

# Largest model of any kind, in float64 parameters (128 MiB).
MAX_PARAMS = 1 << 24
# Largest vocab: no model kind fits a larger one within MAX_PARAMS.
MAX_VOCAB = 1 << 24


@dataclass(frozen=True)
class Vocab:
    """Token alphabet of ``size`` ids: the reserved BOS, EOS and PAD are the
    fixed ids 0, 1 and 2, and the content ids follow them."""

    size: int
    BOS = 0
    EOS = 1
    PAD = 2

    def __post_init__(self):
        if self.size < 3:
            raise ValidationError(f"vocab size must be >= 3, got {self.size}")
        if self.size > MAX_VOCAB:
            raise ValidationError(f"vocab size must be <= {MAX_VOCAB}, got {self.size}")

    @property
    def n_content(self) -> int:
        return self.size - 3

    def content_id(self, index: int) -> int:
        """The id of content token ``index``, 0 <= index < n_content."""
        return int(index) + 3


class TokenIdError(ValidationError):
    """A token id fell outside the vocabulary. ``id_stream`` sets ``seq``, the
    index of the id's sequence among those it checked."""

    def __init__(self, token: int, size: int):
        super().__init__(f"token id {token} out of range for vocab size {size}")
        self.token = token
        self.size = size


def _lengths(sides) -> np.ndarray:
    return np.fromiter(map(len, sides), dtype=np.intp, count=len(sides))


def id_stream(vocab: Vocab, seqs) -> np.ndarray:
    """The ids of the list of sequences ``seqs``, one after another, as one
    intp array: the one token-id check. Every id is compared with the vocab
    once, vectorized, and the first out of range raises TokenIdError naming
    its sequence; an id beyond the machine's integers is found by walking
    the sequences in order."""
    try:
        stream = np.fromiter(chain.from_iterable(seqs), dtype=np.intp, count=sum(map(len, seqs)))
    except OverflowError:
        token, seq = next(
            (int(t), s) for s, ids in enumerate(seqs) for t in ids if not 0 <= t < vocab.size
        )
    else:
        bad = (stream < 0) | (stream >= vocab.size)
        if not bad.any():
            return stream
        at = int(bad.argmax())
        ends = np.cumsum(_lengths(seqs))
        token, seq = int(stream[at]), int(np.searchsorted(ends, at, side="right"))
    err = TokenIdError(token, vocab.size)
    err.seq = seq
    raise err


def side_windows(vocab: Vocab, width: int, prompts, responses) -> tuple[np.ndarray, np.ndarray]:
    """The ``width`` ids before every response position of every side, and
    the id at that position, stacked side by side.

    Side s is ``prompts[s]`` followed by ``responses[s]``, from two lists of
    id sequences. Its windows are BOS-filled where they start before the
    side, and held in the smallest unsigned type that holds ``vocab.size -
    1`` (uint8 up to 256 ids), since a stack has ``width`` of them per
    position; the targets stay intp. ``id_stream`` checks every id once, in
    side order, prompt before response; the first out of range raises
    TokenIdError.
    """
    p_len, r_len = _lengths(prompts), _lengths(responses)
    fill = (vocab.BOS,) * width
    stream = id_stream(vocab, [x for side in zip(prompts, responses) for x in (fill, *side)])
    # stream: (width BOS, prompt, response) per side. A response id sits at
    # its index among all response ids plus the fill and prompt ids of its
    # side and the earlier ones; its window starts width ids before it
    skip = np.cumsum(width + p_len) - width
    first = np.arange(int(r_len.sum())) + np.repeat(skip, r_len)
    compact = stream.astype(np.min_scalar_type(vocab.size - 1))
    shape = (max(compact.size - width + 1, 0), width)
    windows = np.ndarray(shape, compact.dtype, compact, strides=compact.strides * 2)
    return windows[first], stream[first + width]


def context_rows(policy, prompt: Sequence[int], response: Sequence[int]):
    """Row encoding and target id of every position of one response."""
    return policy.stacked_rows([prompt], [response])


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def row_logprobs(policy, rows, targets) -> np.ndarray:
    """log pi(targets[i] | rows[i]) for every i, untracked: the policy's
    ``forward_values`` per block of ``policy.block_rows`` rows (None: the
    whole stack in one call), with no graph, so untracked values are
    bit-identical to the tracked training path. The remainder joins the
    last block, so no block is shorter than ``block_rows`` unless the whole
    stack is.

    A stack that gives every thread at least two blocks is scored by a
    thread pool of one worker per CPU of the process (at most half the
    blocks); a shorter one on the calling thread alone. Each block is
    written to its own slice of the output, computed exactly as alone, so
    the bytes do not depend on the thread count. The pool hands back the
    blocks in order, so the error of the earliest failed block is raised
    here, as a block-by-block loop would raise it; the blocks not yet
    started are cancelled and the workers joined before this returns.
    """
    n = len(targets)
    if n == 0:
        return np.zeros(0)
    size = policy.block_rows or n
    bounds = [i * size for i in range(max(n // size, 1))] + [n]
    forward, params = policy.forward_values, policy.params
    out = np.empty(n)

    def score(lo: int, hi: int) -> None:
        # [0]: the block's intermediates are dropped before the next block
        out[lo:hi] = forward(params, rows[lo:hi], targets[lo:hi])[0]

    threads = min(_cpu_count(), (len(bounds) - 1) // 2)
    if threads < 2:
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            score(lo, hi)
        return out
    with ThreadPoolExecutor(threads) as pool:
        for _ in pool.map(score, bounds[:-1], bounds[1:]):
            pass
    return out


def _known(kind, hyper: dict) -> dict:
    """``hyper``, checked to name only hyperparameters of ``kind``."""
    unknown = sorted(hyper.keys() - kind.HYPER.keys())
    if unknown:
        raise ValidationError(f"{kind.kind} models define no hyper entry {unknown[0]!r}")
    return hyper


def _construct(self, vocab: Vocab, params: dict[str, np.ndarray], /, **hyper):
    """Shared constructor: the hyperparameter names (every keyword: vocab
    and params are positional-only), then the size bound (``shapes``), then
    the exact parameter names and shapes."""
    expected = self.shapes(vocab, **_known(type(self), hyper))
    params = {name: np.asarray(value, dtype=np.float64) for name, value in params.items()}
    got = {name: value.shape for name, value in params.items()}
    if got != expected:
        raise ValidationError(f"{self.kind} parameter shapes {got}, expected {expected}")
    vars(self).update(hyper)
    self.vocab = vocab
    self.params = params


@property
def _hyper(self) -> dict:
    return {name: getattr(self, name) for name in self.HYPER}


class NGramPolicy:
    """Tabular order-n policy: one logit row per length-(n-1) context."""

    kind = "ngram"
    HYPER = {"order": 2}
    # untracked scoring forwards the whole stack at once: every forward
    # log-normalizes the entire table, whatever the number of rows
    block_rows = None

    @staticmethod
    def shapes(vocab: Vocab, *, order: int) -> dict[str, tuple[int, ...]]:
        """The (contexts, vocab) logit table, checked against MAX_PARAMS in
        integer arithmetic before anything is allocated."""
        at_least_one(order=order)
        rows = 1
        for _ in range(order - 1):
            rows *= vocab.size
            if rows > MAX_PARAMS:  # reached within log_3(MAX_PARAMS) rounds
                break
        if rows * vocab.size > MAX_PARAMS:
            raise ValidationError(
                f"an order-{order} n-gram over {vocab.size} tokens needs more than "
                f"{MAX_PARAMS} table entries"
            )
        return {"logits": (rows, vocab.size)}

    @classmethod
    def init(cls, vocab: Vocab, rng: np.random.Generator, **hyper) -> "NGramPolicy":
        """The trainer's initial draw: ``random`` logits at scale 0.1."""
        return cls.random(vocab, {**cls.HYPER, **_known(cls, hyper)}["order"], rng, scale=0.1)

    @classmethod
    def random(
        cls, vocab: Vocab, order: int, rng: np.random.Generator, scale: float = 1.0
    ) -> "NGramPolicy":
        shape = cls.shapes(vocab, order=order)["logits"]
        return cls(vocab, {"logits": scale * rng.standard_normal(shape)}, order=order)

    def step(self, rows, tokens):
        """The table row after ``tokens`` follow contexts whose rows are
        ``rows``: the state recursion (row * v + t) mod v^(order - 1), which
        keeps the base-v code of the last order - 1 ids."""
        return (rows * self.vocab.size + tokens) % self.vocab.size ** (self.order - 1)

    def stacked_rows(self, prompts, responses) -> tuple[np.ndarray, np.ndarray]:
        """Table row (each context window's columns folded through ``step``)
        and target id of every response position of every side, stacked (see
        side_windows)."""
        windows, targets = side_windows(self.vocab, self.order - 1, prompts, responses)
        rows = np.zeros(len(targets), dtype=np.intp)
        for column in windows.T:
            rows = self.step(rows, column)
        return rows, targets

    def forward_values(self, params, rows, targets):
        """log pi(target | row) of every position from the parameter arrays
        ``params``: log-softmax the table, pick entry [row, target]; with
        what the backward reads (the ids as intp and the normalized table)."""
        logits = params["logits"]
        rows, targets = np.asarray(rows, dtype=np.intp), np.asarray(targets, dtype=np.intp)
        ad.check_bounds("embed_lookup", rows, len(logits))
        ad.check_bounds("gather", targets, self.vocab.size)
        table = ad.log_softmax_values(logits, axis=1)
        return table[rows, targets], (rows, targets, table)

    def rows_forward(self, graph: ad.Graph, leaves, rows, targets) -> ad.Node:
        """``forward_values`` as one node over the logits leaf. The backward
        bins the upstream gradient by table cell in position order, then
        applies the log-softmax's backward to the whole table."""
        logits = leaves["logits"]
        values, (rows, targets, table) = self.forward_values(
            {"logits": logits.value}, rows, targets
        )

        def backward(g):
            cell = rows * self.vocab.size + targets
            cells = np.bincount(cell, weights=g, minlength=table.size).reshape(table.shape)
            logits.grad += cells - np.exp(table) * cells.sum(axis=1, keepdims=True)

        return ad.Node(graph, values, backward)

    __init__ = _construct
    hyper = _hyper
    context_rows = context_rows
    row_logprobs = row_logprobs


class NeuralPolicy:
    """Windowed neural policy: embeddings -> tanh hidden -> vocab logits.

    Conditions on the last ``context`` tokens of (prompt ++ response
    prefix), BOS-filled on the left, rather than on full attention; the
    theory only needs autoregressive conditionals and the window keeps
    everything enumerable and fast.
    """

    kind = "neural"
    HYPER = {"context": 8, "embed_dim": 8, "hidden_dim": 32}
    # untracked scoring forwards blocks of at least this many rows, so memory
    # is bounded by the blocks in flight (one per pool worker), not by the
    # stack; the pool starts only at two blocks per worker.
    # OpenBLAS switches to a small-matrix kernel below about 1e6
    # multiply-adds; at 2,048 rows the output product of a 48-wide hidden
    # layer over 12 tokens stays above that, so blocks equal a one-graph
    # forward bit for bit at that shape (narrower models may move in the
    # last bit)
    block_rows = 2048

    @staticmethod
    def shapes(
        vocab: Vocab, *, context: int, embed_dim: int, hidden_dim: int
    ) -> dict[str, tuple[int, ...]]:
        """Embeddings, hidden layer and output layer, their parameter count
        checked against MAX_PARAMS in integer arithmetic before anything is
        allocated."""
        at_least_one(context=context, embed_dim=embed_dim, hidden_dim=hidden_dim)
        v, c, e, h = (int(n) for n in (vocab.size, context, embed_dim, hidden_dim))
        shapes = {"emb": (v, e), "w1": (c * e, h), "b1": (h,), "w2": (h, v), "b2": (v,)}
        count = sum(math.prod(shape) for shape in shapes.values())
        if count > MAX_PARAMS:
            raise ValidationError(
                f"a neural model with vocab {v}, context {c}, embed_dim {e} and "
                f"hidden_dim {h} needs {count} parameters, more than {MAX_PARAMS}"
            )
        return shapes

    @classmethod
    def init(cls, vocab: Vocab, rng: np.random.Generator, **hyper) -> "NeuralPolicy":
        """The trainer's initial draw: uniform in [-0.1, 0.1) for the
        matrices, drawn in the order emb, w1, w2, and zero biases."""
        hyper = {**cls.HYPER, **_known(cls, hyper)}
        params = {
            name: rng.uniform(-0.1, 0.1, size=shape) if len(shape) == 2 else np.zeros(shape)
            for name, shape in cls.shapes(vocab, **hyper).items()
        }
        return cls(vocab, params, **hyper)

    def stacked_rows(self, prompts, responses) -> tuple[np.ndarray, np.ndarray]:
        """Context window and target id of every response position of every
        side, stacked (see side_windows)."""
        return side_windows(self.vocab, self.context, prompts, responses)

    def forward_values(self, params, rows, targets):
        """log pi(target | row) of every position from the parameter arrays
        ``params``: embed the windows, flatten, tanh hidden layer, output
        layer, log-softmax, pick each target; with what the backward reads
        (the ids as intp, the flattened embeddings, the hidden layer and
        the log-softmax)."""
        emb, w1, b1, w2, b2 = (params[name] for name in ("emb", "w1", "b1", "w2", "b2"))
        rows, targets = np.asarray(rows, dtype=np.intp), np.asarray(targets, dtype=np.intp)
        ad.check_bounds("embed_lookup", rows, self.vocab.size)
        ad.check_bounds("gather", targets, self.vocab.size)
        x = np.take(emb, rows, axis=0).reshape(len(rows), self.context * self.embed_dim)
        hidden = x @ w1
        hidden += b1
        np.tanh(hidden, out=hidden)
        logits = hidden @ w2
        logits += b2
        logp = ad.log_softmax_values(logits, axis=1)
        picked = np.arange(len(targets)), targets
        return logp[picked], (rows, picked, x, hidden, logp)

    def rows_forward(self, graph: ad.Graph, leaves, rows, targets) -> ad.Node:
        """``forward_values`` as one node over the five leaves. The backward
        is derived by hand and adds straight into the leaves' gradients, so
        no intermediate holds a gradient buffer."""
        names = ("emb", "w1", "b1", "w2", "b2")
        emb, w1, b1, w2, b2 = (leaves[name] for name in names)
        values, (rows, picked, x, hidden, logp) = self.forward_values(
            {name: leaves[name].value for name in names}, rows, targets
        )

        def backward(g):
            # logits gradient: g * (one-hot(target) - softmax), row by row
            d = np.exp(logp)
            d *= -g[:, None]
            d[picked] += g
            b2.grad += np.sum(d, axis=0)
            w2.grad += hidden.T @ d
            dh = d @ w2.value.T
            dh *= 1.0 - hidden * hidden
            b1.grad += np.sum(dh, axis=0)
            w1.grad += x.T @ dh
            emb.grad += ad.id_row_sums(rows, dh @ w1.value.T, emb.value.shape)

        return ad.Node(graph, values, backward)

    __init__ = _construct
    hyper = _hyper
    context_rows = context_rows
    row_logprobs = row_logprobs


KINDS = {kind.kind: kind for kind in (NeuralPolicy, NGramPolicy)}


Policy = NGramPolicy | NeuralPolicy


def token_logprobs(policy: Policy, prompt, response) -> np.ndarray:
    """Per-token conditional log-probabilities of the response."""
    return row_logprobs(policy, *context_rows(policy, prompt, response))


def _vocab_doc(size: int) -> dict:
    """A checkpoint's ``vocab`` entry: the size and the fixed reserved ids."""
    return {"size": size, "bos": Vocab.BOS, "eos": Vocab.EOS, "pad": Vocab.PAD}


def save_checkpoint(policy: Policy, path) -> None:
    doc = {
        "kind": policy.kind,
        "vocab": _vocab_doc(policy.vocab.size),
        "hyper": policy.hyper,
        "params": {
            name: {"shape": list(value.shape), "data": value.reshape(-1).tolist()}
            for name, value in policy.params.items()
        },
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
    vocab = Vocab(doc["vocab"]["size"])
    want = _vocab_doc(vocab.size)
    if doc["vocab"] != want:
        raise ValueError(f"the reserved ids are fixed: vocab {doc['vocab']} is not {want}")
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
    kind = KINDS.get(doc["kind"])
    if kind is None:
        raise ValidationError(f"unknown model kind {doc['kind']!r}")
    missing = [name for name in kind.HYPER if name not in hyper]
    if missing:
        raise KeyError(missing[0])
    return kind(vocab, params, **hyper)
