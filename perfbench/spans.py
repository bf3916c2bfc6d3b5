"""In-memory spans and exact counters recorded around calls into aemle.

A span is (id, name, start, end, parent, op): `name` is "<layer>.<function>"
for a call into a module of aemle, or "op.<kind>" for the root span of one
workload operation, which is the parent of the layer spans made during it.
Spans and counters stay in memory and are written out once, at the end.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import Counter
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """Calls straight through; the untraced replay uses it."""

    def call(self, layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        pass


class Tracer(NullTracer):
    """Records one span per call and per operation, and named counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._parent: int | None = None
        self._op: int | None = None

    def call(self, layer, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.spans.append(
                Span(len(self.spans), f"{layer}.{fn.__name__}", start, end, self._parent, self._op)
            )

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    @contextlib.contextmanager
    def op(self, op_id: int, kind: str):
        span_id = len(self.spans)
        self.spans.append(Span(span_id, f"op.{kind}", time.perf_counter(), 0.0, None, op_id))
        self._parent, self._op = span_id, op_id
        try:
            yield
        finally:
            self.spans[span_id] = self.spans[span_id]._replace(end=time.perf_counter())
            self._parent = self._op = None

    def dump(self, fh, origin: float, **extra) -> None:
        """Write the spans as JSON lines, times in seconds from `origin`."""
        for s in self.spans:
            fh.write(json.dumps({
                "id": s.id, "name": s.name, "start": s.start - origin,
                "end": s.end - origin, "parent": s.parent, "op": s.op, **extra,
            }) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_times(spans: list[Span]) -> dict[str, tuple[float, float]]:
    """Busy and self seconds per layer.

    Busy is the sum of a layer's span durations; self subtracts from each
    span the part of its interval that its child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, tuple[float, float]] = {}
    for s in spans:
        if s.layer == "op":
            continue
        busy = s.end - s.start
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, [])]
        own = busy - _covered([iv for iv in clipped if iv[1] > iv[0]])
        prev_busy, prev_self = out.get(s.layer, (0.0, 0.0))
        out[s.layer] = (prev_busy + busy, prev_self + own)
    return out
