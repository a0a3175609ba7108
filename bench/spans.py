"""In-memory spans around calls into pathseq, placed from outside the package.

A span records name, start, end, parent span and job id. Wrappers replace
module attributes (including names one module imported from another, such as
pathseq.reconstruct.starlike_profile) and are removed again afterwards, so
untraced runs execute the package exactly as shipped. Self time is a span's
duration minus its child spans and minus the time spent inside the index
function f while the span was innermost.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: str | None
    start: float = 0.0
    end: float = 0.0
    f_s: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.f_s = 0.0
        self.job: str | None = None
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, on_result=None):
        """A span around every call of fn; on_result(span, args, result) may annotate it."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1].id if stack else None, self.job)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(span, args, result)
            return result

        return traced

    def count(self, fn, name: str, amount=None):
        """Count calls of fn (or amount(result) per call) without a span."""
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if amount is None else amount(result)
            return result

        return counted

    def timed_index(self, fn):
        """Wrap an index function: count calls and charge their time to the innermost span."""
        stack, counts = self._stack, self.counts

        def timed(degrees):
            t0 = perf_counter()
            value = fn(degrees)
            dt = perf_counter() - t0
            counts["invariants.f_calls"] += 1
            self.f_s += dt
            if stack:
                stack[-1].f_s += dt
            return value

        return timed

    def patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus direct children's durations minus own f time, per span."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child[s.id] - s.f_s for s in spans}


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for s in spans:
        totals[s.name] += own[s.id]
    return dict(totals)


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x); 0 with fewer than two x values."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
