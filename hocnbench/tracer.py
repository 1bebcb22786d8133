"""In-memory spans recorded by timing wrappers around hocn's public functions.

A span is (name, start, end, parent). Wrappers are installed at the module
or class attributes where the program looks each function up, and removed
afterwards; the untraced run installs none.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


class Tracer:
    """Span stack for one single-threaded caller, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += float(value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds ``s`` (outermost spans of the name only,
    so recursion is not counted twice), ``self_s`` and ``calls``."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for index, (s, self_s) in enumerate(zip(spans, own)):
        entry = out[s.name]
        entry["self_s"] += self_s
        entry["calls"] += 1
        parent = s.parent
        while parent >= 0 and spans[parent].name != s.name:
            parent = spans[parent].parent
        if parent < 0:
            entry["s"] += s.end - s.start
    return dict(out)


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if counter is not None:
            # Counting is benchmark work: give it its own span so that it
            # does not inflate the self time of the caller.
            with tracer.span("trace.counters"):
                counter(tracer, out)
        return out
    return wrapper


@contextmanager
def installed(tracer: Tracer, targets):
    """Replace each ``(owner, attribute, span name, counter)`` target by a
    timing wrapper for the duration of the block; ``counter(tracer, result)``
    may be None."""
    saved = []
    try:
        for owner, attr, name, counter in targets:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(tracer, name, raw.__func__, counter))
            else:
                new = _wrap(tracer, name, raw, counter)
            setattr(owner, attr, new)
            saved.append((owner, attr, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
