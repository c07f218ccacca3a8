"""In-memory spans recorded from the benchmark's own code.

A span is (name, start, end, parent, job).  Names are ``layer.operation``
for calls into a ``smoothwords`` module; a name without a dot (``job``,
``check``) only groups child spans.  Spans stay in memory and are
written out when the job ends.

A layer's self time is the sum over its spans of duration minus the
time covered by direct child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, job: str = ""):
        self.job = job
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name, "start": time.perf_counter(), "end": None,
            "parent": self._stack[-1] if self._stack else None, "job": self.job,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def count_max(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters[name], value)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span around every call of ``owner.attr``, if it exists.

        ``owner`` is a class (for a method) or a module (for a function,
        by the name under which that module calls it).
        """
        original = getattr(owner, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, traced)


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced library jobs."""

    @contextmanager
    def span(self, name: str):
        yield None


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span, indexed like ``spans``.

    Parents are indices into the same list, as ``Tracer`` records them.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]


def under(spans: list[dict], root_name: str) -> list[bool]:
    """For each span, whether it is a descendant of a span named ``root_name``."""
    flags: list[bool] = []
    for s in spans:
        p = s["parent"]
        flags.append(p is not None and (spans[p]["name"] == root_name or flags[p]))
    return flags
