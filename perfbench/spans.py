"""In-memory spans recorded by the benchmark around calls into qwhit.

A span is a named interval with a parent; every span of one operation
carries that operation's call id, which the caller sets on the tracer
before the operation starts.  The tracer also keeps per-call counts.
Spans and counts stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root
    call: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.call = 0
        self.counts: dict[int, dict[str, int]] = {}

    def count(self, name, value, combine=lambda old, new: old + new):
        """Fold ``value`` into the current call's count ``name``."""
        per_call = self.counts.setdefault(self.call, {})
        per_call[name] = (combine(per_call[name], value) if name in per_call
                          else value)

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.call))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()


def self_times(spans):
    """Per-call self time of each span name.

    A span's self time is its duration minus the part of its interval that
    its direct children cover (children may overlap each other, so their
    union is subtracted, clipped to the parent).  Returns
    ``{call: {name: seconds}}`` with the self times of same-named spans in
    one call summed.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[int, dict[str, float]] = {}
    for index, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        per_call = out.setdefault(s.call, {})
        per_call[s.name] = per_call.get(s.name, 0.0) + (s.end - s.start
                                                         - covered)
    return out
