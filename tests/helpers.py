"""Gradient checking, scoring, policies, draws and reference segmentations
that only tests use.

``grad_check`` compares a graph's analytic gradients against extrapolated
central differences; ``scalar_root`` turns a vector node into the scalar a
backward pass starts from. The scoring here is the tests' independent path to a policy's
conditionals: it calls the public ``row_logprobs`` once per id and row,
whereas the oracle reads an n-gram's table through its state recursion,
so each can be checked against the other. Likewise ``segment_bounds`` is
the paper's definition of a pair's segments, written from the segment
sizes, and the kept ranks here are read off those bounds, whereas
``losses.stacked_ranks`` computes them in closed form from each
position. ``shift_drift`` is the shift-invariance residual of the
oracle's reparameterization, from two ``reparameterize`` calls of its own.
``reference_dpo`` is DPO written out with ``np.sum`` per side, apart from
the segment layout that every loss in ``losses`` shares.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from preflab import autodiff as ad
from preflab import lm, oracle


@dataclass
class GradCheckReport:
    max_rel_error: float
    h: float
    tol: float
    passed: bool


def grad_check(
    build: Callable[[ad.Graph, list[ad.Node]], ad.Node],
    params: Sequence,
    h: float = 1e-5,
    tol: float = 1e-6,
) -> GradCheckReport:
    """Compare analytic gradients of a scalar graph against finite differences.

    Each numeric derivative is the Richardson extrapolation
    (4·D(h/2) − D(h))/3 of the central differences D at ±h and ±h/2, whose
    h² error terms cancel, leaving an error of order h⁴.

    ``build(graph, leaves)`` must construct and return a scalar Node from
    the given leaves; it is re-invoked for every probe and must be pure.
    The relative error of each coordinate uses the denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    if h <= 0:
        raise ValueError("grad_check: h must be positive")
    base = [np.array(p, dtype=np.float64, order="C") for p in params]
    graph = ad.Graph()
    leaves = [graph.leaf(p) for p in base]
    out = build(graph, leaves)
    graph.backward(out)
    analytic = [leaf.grad.copy() for leaf in leaves]

    def evaluate(values) -> float:
        g = ad.Graph()
        return float(build(g, [g.leaf(v) for v in values]).value)

    def central(flat, j, step) -> float:
        keep = flat[j]
        flat[j] = keep + step
        f_plus = evaluate(base)
        flat[j] = keep - step
        f_minus = evaluate(base)
        flat[j] = keep
        return (f_plus - f_minus) / (2.0 * step)

    max_rel = 0.0
    for pi, p in enumerate(base):
        flat = p.reshape(-1)
        grad_flat = analytic[pi].reshape(-1)
        for j in range(flat.size):
            numeric = (4.0 * central(flat, j, h / 2) - central(flat, j, h)) / 3.0
            a = float(grad_flat[j])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > max_rel:
                max_rel = rel
    return GradCheckReport(max_rel_error=max_rel, h=h, tol=tol, passed=max_rel <= tol)


def scalar_root(node, up=None):
    """A scalar root over ``node`` for ``Graph.backward``: the sum of its
    entries times ``up`` (default all ones), so ``up`` is the gradient the
    backward sends into ``node``."""
    up = np.ones_like(node.value) if up is None else np.asarray(up, dtype=np.float64)

    def backward(g):
        node.grad += g * up

    return ad.Node(node.graph, np.sum(node.value * up), backward)


def reference_dpo(pairs, beta: float) -> float:
    """The DPO loss (Rafailov et al., 2023) of (chosen, rejected) log-ratio
    vectors: the mean over pairs of -log sigmoid(beta * (sum chosen - sum
    rejected)), each side summed by ``np.sum``, and -log sigmoid(x) taken
    as ``np.logaddexp(0, -x)``."""
    margins = np.array([beta * (np.sum(chosen) - np.sum(rejected)) for chosen, rejected in pairs])
    return float(np.mean(np.logaddexp(0.0, -margins)))


def vocab_logprobs(policy, rows) -> np.ndarray:
    """(rows, vocab) table of log pi(t | row) for every row and every id t."""
    size = policy.vocab.size
    targets = np.tile(np.arange(size), len(rows))
    return lm.row_logprobs(policy, np.repeat(rows, size, axis=0), targets).reshape(-1, size)


def conditional_row(policy, prompt, prefix) -> np.ndarray:
    """Log-probability row over the vocab for the token after ``prefix``: the
    last context row of ``prefix`` plus any token, scored for every id."""
    rows, _ = policy.context_rows(prompt, tuple(prefix) + (policy.vocab.BOS,))
    return vocab_logprobs(policy, rows[-1:])[0]


def seq_logprob(policy, prompt, response) -> float:
    """Sequence log-probability: the sum of token_logprobs entries."""
    return float(np.sum(lm.token_logprobs(policy, prompt, response)))


def uniform_ngram(vocab, order: int) -> lm.NGramPolicy:
    """The order-``order`` n-gram with all-zero logits: uniform over the vocab
    after every context."""
    shape = lm.NGramPolicy.shapes(vocab, order=order)["logits"]
    return lm.NGramPolicy(vocab, {"logits": np.zeros(shape)}, order=order)


def random_prefix_reward(space, rng, scale: float = 1.0, lead: tuple = ()) -> np.ndarray:
    """Gaussian (..., contexts, vocab) prefix rewards over an oracle space."""
    return scale * rng.standard_normal((*lead, *space.child.shape))


def shift_drift(space, rstar, ref_table, beta, offsets) -> float:
    """Max row change of the induced policy when every context's reward row
    moves by its entry of ``offsets``, shaped like rstar without the vocab
    axis: two ``reparameterize`` calls, before and after the shift."""
    base = oracle.reparameterize(space, rstar, ref_table, beta)
    moved = oracle.reparameterize(space, rstar + np.asarray(offsets)[..., None], ref_table, beta)
    return float(np.max(np.abs(base.policy - moved.policy)))


def along_sequences(space, table) -> np.ndarray:
    """The (..., N, L) entries a (..., contexts, vocab) table assigns to
    every position of every sequence of an oracle space; 0 past each end."""
    table = np.asarray(table, dtype=np.float64)
    lead = table.shape[:-2]
    flat = np.concatenate((table.reshape(*lead, -1), np.zeros((*lead, 1))), axis=-1)
    return np.take(flat, space.flat_at.T, axis=-1)


def segment_bounds(seg) -> tuple[list, list]:
    """The paper's segments of a ``SegmentedPair``, per side, as half-open
    [start, stop) bounds from the segment sizes: static window i is
    [i·k, (i+1)·k) clipped to the side's length, with ⌈max(len_w, len_l)/k⌉
    windows; adaptive segment i of a side of n tokens is
    [⌊i·n/m⌋, ⌊(i+1)·n/m⌋)."""
    p, sides = seg.param, (seg.len_w, seg.len_l)
    if seg.family == "static":
        count = -(-max(sides) // p)
        return tuple([(min(i * p, n), min((i + 1) * p, n)) for i in range(count)] for n in sides)
    return tuple([(i * n // p, (i + 1) * n // p) for i in range(p)] for n in sides)


def bounds_kept_ranks(seg) -> tuple[np.ndarray, np.ndarray]:
    """Per side, the rank of every position's segment among the segments
    non-empty on at least one side, read off ``segment_bounds``."""
    w_sizes, l_sizes = (
        np.array([stop - start for start, stop in b], dtype=np.intp) for b in segment_bounds(seg)
    )
    rank = np.cumsum(w_sizes + l_sizes > 0) - 1
    return np.repeat(rank, w_sizes), np.repeat(rank, l_sizes)


def python_kept_ranks(family, param, len_w, len_l) -> tuple[list, list]:
    """The kept ranks in Python integers from each position's segment id
    (i // k, or ((i + 1)·m − 1) // n on a side of n tokens), for any size
    of k or m."""
    if family == "static":
        ids = [[i // param for i in range(n)] for n in (len_w, len_l)]
    else:
        ids = [[((i + 1) * param - 1) // n for i in range(n)] for n in (len_w, len_l)]
    kept = sorted(set(ids[0]) | set(ids[1]))
    rank = {seg: r for r, seg in enumerate(kept)}
    return [rank[s] for s in ids[0]], [rank[s] for s in ids[1]]
