"""In-memory spans recorded by wrappers the benchmark installs from outside.

The program under test carries no instrumentation. For a traced run the
benchmark replaces selected functions with wrappers that record one span
per call, then puts the originals back. A wrapper has to sit on the name
each caller actually looks up: ``trainer.train`` calls ``batch_loss``
through its own module global, so the wrapper goes on
``preflab.trainer.batch_loss``, not on ``preflab.losses.batch_loss``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    """One timed call: name, start, end, parent span index and op id."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on a single thread; nothing is written until
    the caller asks for the spans at the end of the run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} is innermost")

    def run_op(self, op_id: int, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` under a root span named ``op`` tagged with ``op_id``."""
        self.op = op_id
        index = self.open("op")
        try:
            return fn()
        finally:
            self.close(index)
            self.op = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.duration - covered)
    return out


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``owner.attr`` (or ``owner[attr]`` for a dict).

    ``count`` maps (args, kwargs) to a callable that takes the result and
    returns the counts to store on the span; it runs before the call so it
    can capture state the call changes (such as a graph's node count).
    """

    owner: Any
    attr: str
    name: str
    count: Callable[..., Callable[[Any], dict]] | None = None


def _get_raw(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _set_raw(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _wrap(tracer: Tracer, fn: Callable, target: Target) -> Callable:
    name, count = target.name, target.count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        finish = count(args, kwargs) if count is not None else None
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if finish is not None:
            tracer.spans[index].counts.update(finish(result))
        return result

    return wrapper


class Installed:
    """Wrappers in place; ``remove`` restores every original object."""

    def __init__(self, originals: list[tuple[Any, str, Any]]):
        self._originals = originals

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._originals):
            _set_raw(owner, attr, raw)
        self._originals = []


def install(tracer: Tracer, targets: list[Target]) -> Installed:
    originals = []
    try:
        for t in targets:
            raw = _get_raw(t.owner, t.attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(tracer, raw.__func__, t))
            else:
                wrapped = _wrap(tracer, raw, t)
            originals.append((t.owner, t.attr, raw))
            _set_raw(t.owner, t.attr, wrapped)
    except BaseException:
        Installed(originals).remove()
        raise
    return Installed(originals)


def is_original(targets: list[Target], originals: dict) -> bool:
    """True when every target holds the object recorded in ``originals``
    (keyed by target index) before wrappers were installed."""
    return all(_get_raw(t.owner, t.attr) is originals[i] for i, t in enumerate(targets))


def snapshot(targets: list[Target]) -> dict:
    return {i: _get_raw(t.owner, t.attr) for i, t in enumerate(targets)}
