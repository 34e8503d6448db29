"""Spans and counters recorded by the benchmark around its calls into gatecover.

A span has a name, a start, an end, a parent span and an op id.  Spans stay in
memory and are written out when the run ends.  ``NullTracer`` has the same
interface and records nothing; untraced runs use it, so the end-to-end
figures carry no tracing cost.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int | str | None


class Tracer:
    """Records nested spans and named counter observations."""

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, list[tuple[int | str | None, float]]] = defaultdict(list)
        self.op_id: int | str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), name, self.clock(), float("nan"),
                    self._stack[-1] if self._stack else None, self.op_id)
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.clock()

    def count(self, name: str, value: float) -> None:
        """Record one observation, tagged with the current op id."""
        self.counters[name].append((self.op_id, value))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counters": dict(self.counters)}, fh)
            fh.write("\n")


class _NoSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class NullTracer:
    """The untraced stand-in: every call is a no-op."""

    enabled = False
    op_id = None
    _NO_SPAN = _NoSpan()

    def span(self, name: str):
        return self._NO_SPAN

    def count(self, name: str, value: float) -> None:
        pass


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


def span_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds, p50 seconds and self seconds."""
    selfs = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    self_sum: dict[str, float] = defaultdict(float)
    for s in spans:
        durations[s.name].append(s.end - s.start)
        self_sum[s.name] += selfs[s.span_id]
    return {name: {"calls": len(d), "s": sum(d), "p50_s": statistics.median(d),
                   "self_s": self_sum[name]}
            for name, d in durations.items()}

