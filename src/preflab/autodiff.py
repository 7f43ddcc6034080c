"""Reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run: every forward pass records its nodes on a fresh ``Graph``
tape, and ``Graph.backward`` replays that tape in exact reverse creation
order. Accumulation order is therefore deterministic, and two backward
passes over identical graphs produce bit-identical gradients.

Elementwise operands must have equal shapes: nothing broadcasts, which
removes a whole class of silently misaligned operands.

Operands that are not ``Node`` instances are treated as untracked
constants: they participate in the forward value but accumulate no
gradient.

A graph owns its nodes; a node refers back to its graph only weakly, so a
tape is freed by reference counting as soon as the caller drops it.

The generic ops are ``sub`` and ``slice1d``. Everything else records
itself as one ``Node`` with a hand-derived backward: each policy's
forward in ``lm`` (built from ``log_softmax_values`` and the helpers
``check_bounds`` and ``id_row_sums``) and the preference loss in
``losses`` (built from ``log_sigmoid_values`` and ``sigmoid_values``).
In the package only the trainer's train step records nodes: evaluation,
the reward profile and the oracle compute on plain arrays, with the value
helpers below. The tests check every node's backward against central
finite differences (``grad_check`` in ``tests/helpers.py``).
"""

from __future__ import annotations

import weakref

import numpy as np

Array = np.ndarray


class ShapeMismatchError(ValueError):
    """Two operands, or an operand and its index or weight vector, differ in shape."""

    def __init__(self, op: str, a: tuple, b: tuple):
        super().__init__(f"{op}: incompatible shapes {a} and {b}")
        self.shapes = (a, b)


class IndexBoundsError(IndexError):
    """A gather, lookup, slice or segment index fell outside its axis."""

    def __init__(self, op: str, index: int, size: int):
        super().__init__(f"{op}: index {index} out of bounds for size {size}")
        self.index = index
        self.size = size


# ---------------------------------------------------------------------------
# plain numeric helpers (not graph ops; shared by ops and by callers that
# evaluate without building a graph)
# ---------------------------------------------------------------------------


def sigmoid_values(z):
    """Stable logistic sigmoid."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def log_sigmoid_values(z):
    """Stable log-sigmoid: -softplus(-z), with softplus(x) = max(x, 0) +
    log1p(exp(-|x|)), which no float64 overflows."""
    x = -np.asarray(z, dtype=np.float64)
    return -(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))


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
    """One value in a computation graph, a same-shape gradient buffer, and
    the backward that adds the buffer into the operands it closes over.

    The gradient buffer materializes lazily (all-zeros on first access), so
    forward-only graphs never allocate one.
    """

    __slots__ = ("value", "_grad", "_graph", "_backward")

    def __init__(self, graph: "Graph", value, backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self._grad = None
        self._graph = weakref.ref(graph)
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


def graph_of(op: str, *operands) -> Graph:
    """The one graph the ``Node`` operands belong to; raises ValueError,
    naming ``op``, if there is none, it was freed, or there are two."""
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


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def sub(a, b) -> Node:
    """a - b over operands of one shape."""
    va, vb = _value(a), _value(b)
    if va.shape != vb.shape:
        raise ShapeMismatchError("sub", va.shape, vb.shape)
    graph = graph_of("sub", a, b)

    def backward(g):
        if isinstance(a, Node):
            a.grad += g
        if isinstance(b, Node):
            b.grad -= g

    return Node(graph, va - vb, backward)


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def check_bounds(op: str, idx: Array, size: int) -> None:
    """Raise IndexBoundsError, naming ``op``, at the first index (in C
    order) outside [0, size)."""
    bad = (idx < 0) | (idx >= size)
    if bad.any():
        raise IndexBoundsError(op, int(idx[bad][0]), size)


def id_row_sums(ids: Array, g: Array, shape: tuple[int, int]) -> Array:
    """The (v, d) table whose row t sums, in position order, the d-wide
    rows of ``g`` (one per entry of ``ids``, in its order) looked up with
    id t: all columns in one ``np.bincount`` over (id, column) bins, each
    entry's bin gathered from a table of flat indices as a lookup gathers
    its value."""
    size = shape[0] * shape[1]
    bins = np.take(np.arange(size).reshape(shape), ids, axis=0)
    return np.bincount(bins.reshape(-1), weights=g.reshape(-1), minlength=size).reshape(shape)


def slice1d(a, start: int, stop: int) -> Node:
    """Contiguous slice of a 1-D array."""
    va = a.value
    if va.ndim != 1 or not (0 <= start <= stop <= va.shape[0]):
        raise IndexBoundsError("slice1d", stop, va.shape[0])
    graph = graph_of("slice1d", a)

    def backward(g):
        a.grad[start:stop] += g

    return Node(graph, va[start:stop].copy(), backward)
