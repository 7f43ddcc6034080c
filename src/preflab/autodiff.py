"""Reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run: every forward pass records its nodes on a fresh ``Graph``
tape, and ``Graph.backward`` replays that tape in exact reverse creation
order. Accumulation order is therefore deterministic, and two backward
passes over identical graphs produce bit-identical gradients.

Only scalar <-> array broadcasting is supported. Anything richer must be
spelled out with explicit shapes (``reshape``, ``add_bias``, ``matmul``),
which removes a whole class of silently misaligned operands.

Operands that are not ``Node`` instances are treated as untracked
constants: they participate in the forward value but accumulate no
gradient.

A graph owns its nodes; a node refers back to its graph only weakly, so a
tape is freed by reference counting as soon as the caller drops it.

Segment reductions (DPO, ADPO and cADPO logits alike) go through one op,
``weighted_segment_sum``: a ``np.bincount`` over the concatenated side
vectors of a whole batch, with per-position segment ids and weights.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class ShapeMismatchError(ValueError):
    """Operand shapes neither match nor qualify for scalar broadcasting."""

    def __init__(self, op: str, a: tuple, b: tuple):
        super().__init__(f"{op}: incompatible shapes {a} and {b}")
        self.shapes = (a, b)


class IndexBoundsError(IndexError):
    """A gather/lookup index fell outside its axis."""

    def __init__(self, op: str, index: int, size: int):
        super().__init__(f"{op}: index {index} out of bounds for size {size}")
        self.index = index
        self.size = size


# ---------------------------------------------------------------------------
# plain numeric helpers (not graph ops; shared by ops and by callers that
# evaluate without building a graph)
# ---------------------------------------------------------------------------


def softplus_values(z):
    """Stable softplus: log(1 + exp(z)) without overflow for any float64."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid_values(z):
    """Stable logistic sigmoid."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def log_sigmoid_values(z):
    """Stable log-sigmoid: -softplus(-z)."""
    return -softplus_values(-np.asarray(z, dtype=np.float64))


def logsumexp_values(z, axis: int = -1):
    """Max-shifted log-sum-exp along ``axis``."""
    z = np.asarray(z, dtype=np.float64)
    m = np.max(z, axis=axis, keepdims=True)
    lse = m + np.log(np.sum(np.exp(z - m), axis=axis, keepdims=True))
    return np.squeeze(lse, axis=axis)


def log_softmax_values(z, axis: int = -1):
    """Max-shifted log-softmax along ``axis``."""
    z = np.asarray(z, dtype=np.float64)
    m = np.max(z, axis=axis, keepdims=True)
    shifted = z - m
    lse = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    return shifted - lse


# ---------------------------------------------------------------------------
# graph machinery
# ---------------------------------------------------------------------------


class Node:
    """One value in a computation graph plus a same-shape gradient buffer.

    The gradient buffer materializes lazily (all-zeros on first access), so
    forward-only graphs never allocate one.
    """

    __slots__ = ("value", "_grad", "_graph", "_parents", "_backward")

    def __init__(self, graph: "Graph", value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self._grad = None
        self._graph = weakref.ref(graph)
        self._parents = parents
        self._backward = backward
        graph._nodes.append(self)

    @property
    def graph(self) -> "Graph | None":
        """The owning graph, or None once the graph has been freed."""
        return self._graph()

    @property
    def grad(self) -> Array:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return sub(self, other)

    def __repr__(self):
        return f"Node(shape={self.value.shape})"


class Graph:
    """Tape of nodes for one forward pass.

    Nodes point back to their graph only weakly, so dropping the graph
    frees the tape by reference counting, without the cycle collector.

    Single-threaded per graph; independent graphs may live on separate
    threads since no state is shared between them.
    """

    def __init__(self):
        self._nodes: list[Node] = []

    def __len__(self):
        return len(self._nodes)

    def leaf(self, value) -> Node:
        # copy so later edits to the caller's array cannot alias the tape
        return Node(self, np.array(value, dtype=np.float64))

    def zero_grad(self) -> None:
        for node in self._nodes:
            if node._grad is not None:
                node._grad[...] = 0.0

    def backward(self, root: Node) -> None:
        """Reverse sweep in exact reverse creation order.

        Nodes no gradient has reached contribute exactly zero and are
        skipped; accumulation order is unchanged and deterministic.
        """
        if root.graph is not self:
            raise ValueError("backward: root node belongs to a different graph")
        if root.value.size != 1:
            raise ValueError(
                f"backward: root must be scalar, got shape {root.value.shape}"
            )
        root.grad[...] = 1.0
        for node in reversed(self._nodes):
            if node._backward is not None and node._grad is not None:
                node._backward(node._grad)


def _value(x) -> Array:
    if isinstance(x, Node):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _graph_of(op: str, *operands) -> Graph:
    graph = None
    for x in operands:
        if isinstance(x, Node):
            owner = x.graph
            if owner is None:
                raise ValueError(f"{op}: operand's graph has been freed")
            if graph is None:
                graph = owner
            elif owner is not graph:
                raise ValueError(f"{op}: operands belong to different graphs")
    if graph is None:
        raise ValueError(f"{op}: at least one operand must be a Node")
    return graph


def _check_elementwise(op: str, va: Array, vb: Array) -> None:
    if va.shape != vb.shape and va.ndim != 0 and vb.ndim != 0:
        raise ShapeMismatchError(op, va.shape, vb.shape)


def _accumulate(x, g) -> None:
    """Add ``g`` into x's gradient, reducing a scalar-broadcast operand."""
    if not isinstance(x, Node):
        return
    if x.value.ndim == 0 and np.ndim(g) != 0:
        x.grad += np.sum(g)
    else:
        x.grad += g


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def add(a, b) -> Node:
    va, vb = _value(a), _value(b)
    _check_elementwise("add", va, vb)
    graph = _graph_of("add", a, b)

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return Node(graph, va + vb, (a, b), backward)


def sub(a, b) -> Node:
    va, vb = _value(a), _value(b)
    _check_elementwise("sub", va, vb)
    graph = _graph_of("sub", a, b)

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return Node(graph, va - vb, (a, b), backward)


def mul(a, b) -> Node:
    va, vb = _value(a), _value(b)
    _check_elementwise("mul", va, vb)
    graph = _graph_of("mul", a, b)

    def backward(g):
        _accumulate(a, g * vb)
        _accumulate(b, g * va)

    return Node(graph, va * vb, (a, b), backward)


def neg(a) -> Node:
    graph = _graph_of("neg", a)

    def backward(g):
        _accumulate(a, -g)

    return Node(graph, -a.value, (a,), backward)


def sum(a, axis: int | None = None) -> Node:  # noqa: A001 - mirrors np.sum
    graph = _graph_of("sum", a)
    value = np.sum(a.value, axis=axis)

    def backward(g):
        if axis is None:
            a.grad += g
        else:
            a.grad += np.expand_dims(g, axis)

    return Node(graph, value, (a,), backward)


def tanh(a) -> Node:
    graph = _graph_of("tanh", a)
    value = np.tanh(a.value)

    def backward(g):
        a.grad += g * (1.0 - value * value)

    return Node(graph, value, (a,), backward)


def log_sigmoid(a) -> Node:
    """log(sigmoid(x)), computed as -softplus(-x); gradient sigmoid(-x)."""
    graph = _graph_of("log_sigmoid", a)
    va = a.value

    def backward(g):
        a.grad += g * sigmoid_values(-va)

    return Node(graph, log_sigmoid_values(va), (a,), backward)


def log_softmax(a, axis: int = -1) -> Node:
    graph = _graph_of("log_softmax", a)
    value = log_softmax_values(a.value, axis=axis)

    def backward(g):
        a.grad += g - np.exp(value) * np.sum(g, axis=axis, keepdims=True)

    return Node(graph, value, (a,), backward)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Node:
    graph = _graph_of("reshape", a)
    original = a.value.shape

    def backward(g):
        a.grad += g.reshape(original)

    return Node(graph, a.value.reshape(shape), (a,), backward)


def matmul(a, b) -> Node:
    va, vb = _value(a), _value(b)
    if va.ndim != 2 or vb.ndim != 2 or va.shape[1] != vb.shape[0]:
        raise ShapeMismatchError("matmul", va.shape, vb.shape)
    graph = _graph_of("matmul", a, b)

    def backward(g):
        if isinstance(a, Node):
            a.grad += g @ vb.T
        if isinstance(b, Node):
            b.grad += va.T @ g

    return Node(graph, va @ vb, (a, b), backward)


def add_bias(mat, bias) -> Node:
    """Add a (k,) bias row-wise onto an (n, k) matrix."""
    vm, vb = _value(mat), _value(bias)
    if vm.ndim != 2 or vb.ndim != 1 or vm.shape[1] != vb.shape[0]:
        raise ShapeMismatchError("add_bias", vm.shape, vb.shape)
    graph = _graph_of("add_bias", mat, bias)

    def backward(g):
        if isinstance(mat, Node):
            mat.grad += g
        if isinstance(bias, Node):
            bias.grad += np.sum(g, axis=0)

    return Node(graph, vm + vb[None, :], (mat, bias), backward)


def gather(a, indices) -> Node:
    """Row-aligned selection from a 2-D array: out[i] = a[i, indices[i]]."""
    va = a.value
    idx = np.asarray(indices, dtype=np.intp)
    if va.ndim != 2 or idx.ndim != 1 or idx.shape[0] != va.shape[0]:
        raise ShapeMismatchError("gather", va.shape, idx.shape)
    size = va.shape[1]
    bad = (idx < 0) | (idx >= size)
    if bad.any():
        raise IndexBoundsError("gather", int(idx[bad][0]), size)
    rows = np.arange(va.shape[0])
    graph = _graph_of("gather", a)

    def backward(g):
        # one (row, index) pair per row: a plain fancy-index add is exact
        a.grad[rows, idx] += g

    return Node(graph, va[rows, idx], (a,), backward)


def embed_lookup(table, ids) -> Node:
    """Select rows of a (v, d) table by integer id; repeated ids accumulate.

    Backward sums each id's gradient rows in position order (one
    ``np.bincount`` per column), then adds the sums to the table's gradient.
    """
    vt = table.value
    idx = np.asarray(ids, dtype=np.intp)
    if vt.ndim != 2:
        raise ShapeMismatchError("embed_lookup", vt.shape, idx.shape)
    size = vt.shape[0]
    bad = (idx < 0) | (idx >= size)
    if bad.any():
        raise IndexBoundsError("embed_lookup", int(idx[bad.nonzero()][0]), size)
    flat = idx.reshape(-1)
    graph = _graph_of("embed_lookup", table)

    def backward(g):
        cols = g.reshape(-1, vt.shape[1])
        for j in range(vt.shape[1]):
            table.grad[:, j] += np.bincount(flat, weights=cols[:, j], minlength=size)

    return Node(graph, vt[idx], (table,), backward)


def slice1d(a, start: int, stop: int) -> Node:
    """Contiguous slice of a 1-D array."""
    va = a.value
    if va.ndim != 1 or not (0 <= start <= stop <= va.shape[0]):
        raise IndexBoundsError("slice1d", stop, va.shape[0])
    graph = _graph_of("slice1d", a)

    def backward(g):
        a.grad[start:stop] += g

    return Node(graph, va[start:stop].copy(), (a,), backward)


def weighted_segment_sum(nodes: Sequence, ids, n_segments: int, weights=None) -> Node:
    """out[s] = sum of w[i] * x[i] over positions i with ids[i] == s.

    ``nodes`` are 1-D vectors read as one concatenation; ``ids`` (and
    ``weights``, default all ones) give one entry per position of that
    concatenation; ids must lie in [0, n_segments). A segment no position
    maps to sums to 0. Positions are accumulated in order (``np.bincount``),
    so the result is deterministic.
    """
    if not nodes:
        raise ValueError("weighted_segment_sum: empty node list")
    parts = [_value(x) for x in nodes]
    for v in parts:
        if v.ndim != 1:
            raise ShapeMismatchError("weighted_segment_sum", v.shape, ())
    values = np.concatenate(parts)
    idx = np.asarray(ids, dtype=np.intp)
    if idx.shape != values.shape:
        raise ShapeMismatchError("weighted_segment_sum", values.shape, idx.shape)
    bad = (idx < 0) | (idx >= n_segments)
    if bad.any():
        raise IndexBoundsError("weighted_segment_sum", int(idx[bad][0]), n_segments)
    if weights is None:
        w = np.ones_like(values)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != values.shape:
            raise ShapeMismatchError("weighted_segment_sum", values.shape, w.shape)
    out = np.bincount(idx, weights=w * values, minlength=n_segments)
    stops = np.cumsum([v.shape[0] for v in parts])
    graph = _graph_of("weighted_segment_sum", *nodes)

    def backward(g):
        per_position = g[idx] * w
        for x, stop, v in zip(nodes, stops, parts):
            if isinstance(x, Node):
                x.grad += per_position[stop - v.shape[0] : stop]

    return Node(graph, out, tuple(nodes), backward)


# ---------------------------------------------------------------------------
# finite-difference checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    h: float
    tol: float
    passed: bool


def grad_check(
    build: Callable[[Graph, list[Node]], Node],
    params: Sequence,
    h: float = 1e-5,
    tol: float = 1e-6,
) -> GradCheckReport:
    """Compare analytic gradients of a scalar graph against central differences.

    ``build(graph, leaves)`` must construct and return a scalar Node from
    the given leaves; it is re-invoked for every probe and must be pure.
    The relative error of each coordinate uses the denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    if h <= 0:
        raise ValueError("grad_check: h must be positive")
    base = [np.array(p, dtype=np.float64) for p in params]
    graph = Graph()
    leaves = [graph.leaf(p) for p in base]
    out = build(graph, leaves)
    graph.backward(out)
    analytic = [leaf.grad.copy() for leaf in leaves]

    def evaluate(values) -> float:
        g = Graph()
        return float(build(g, [g.leaf(v) for v in values]).value)

    max_rel = 0.0
    for pi, p in enumerate(base):
        flat = p.reshape(-1)
        grad_flat = analytic[pi].reshape(-1)
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            f_plus = evaluate(base)
            flat[j] = keep - h
            f_minus = evaluate(base)
            flat[j] = keep
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(grad_flat[j])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > max_rel:
                max_rel = rel
    return GradCheckReport(max_rel_error=max_rel, h=h, tol=tol, passed=max_rel <= tol)
