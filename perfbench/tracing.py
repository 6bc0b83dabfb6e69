"""In-memory spans and counts, recorded from the benchmark's own files.

A span has a name, start, end, the span that caused it and a request
id.  Counts are recorded on the span open at the same boundary.  A
span's self time is its duration minus the part its children cover;
the per-layer metrics are sums of self time per layer.

Spans are opened around calls into ``repro``'s public functions.  Where
a layer is only reachable inside another public function (the lexer
inside ``parse``, ``SolverContext`` inside
``find_reductions_in_function``), :meth:`Tracer.wrap` swaps the module
attribute for a recording wrapper for the length of a traced pass and
restores it afterwards; untraced requests never see a wrapper.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "kind",
                 "child_time", "counts")

    def __init__(self, name, parent, request, kind):
        self.name = name
        self.parent = parent
        self.request = request
        self.kind = kind
        self.start = time.perf_counter()
        self.end = None
        self.child_time = 0.0
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.kind = None
        self.request = None
        #: Whole traced passes per request kind, for per-pass averages.
        self.passes: dict[str, int] = defaultdict(int)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.request, self.kind)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_time += span.duration
            self.spans.append(span)

    def count(self, name: str, amount) -> None:
        """Add ``amount`` to counter ``name`` on the open span."""
        counts = self._stack[-1].counts
        counts[name] = counts.get(name, 0) + amount

    @contextlib.contextmanager
    def traced_pass(self, kind: str):
        self.kind = kind
        try:
            yield
        finally:
            self.passes[kind] += 1
            self.kind = None

    @contextlib.contextmanager
    def request_scope(self, request_id, name: str = "request"):
        self.request = request_id
        try:
            with self.span(name) as span:
                yield span
        finally:
            self.request = None

    @contextlib.contextmanager
    def wrap(self, owner, attribute: str, name: str, counter=None):
        """Record a span around every call of ``owner.attribute``.

        ``counter(result)`` may return ``(count name, amount)`` pairs
        recorded on the new span.
        """
        original = getattr(owner, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
                if counter is not None:
                    for count_name, amount in counter(result):
                        tracer.count(count_name, amount)
                return result

        setattr(owner, attribute, wrapper)
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    # -- aggregation ---------------------------------------------------------

    def self_ms_per_pass(self, kind: str, name: str) -> float:
        total = sum(s.self_time for s in self.spans
                    if s.kind == kind and s.name == name)
        return 1e3 * total / max(1, self.passes[kind])

    def count_per_pass(self, kind: str, name: str) -> float:
        total = sum(s.counts.get(name, 0) for s in self.spans
                    if s.kind == kind)
        return total / max(1, self.passes[kind])

    def durations(self, kind: str, name: str) -> list[float]:
        return [s.duration for s in self.spans
                if s.kind == kind and s.name == name]
