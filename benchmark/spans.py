"""Timing of calls into the package, with optional span recording.

Every timed call goes through :class:`Recorder`, so untraced and traced runs
execute the same benchmark code.  With tracing on, each call also leaves a
span (name, start, end, parent) in memory; nothing is written until the run
ends.  Span names are ``<module>.<function>`` for calls into the package and
``stage.<name>`` / ``workload.<name>`` for the benchmark's own grouping.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Recorder:
    """Times calls; with ``trace=True`` also keeps one span per call."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []  # indices of enclosing spans

    def _parent(self) -> int:
        return self._open[-1] if self._open else -1

    def add(self, name: str, t0: float, t1: float) -> None:
        """Record a finished call that the caller timed itself."""
        if self.trace:
            self.spans.append((name, t0, t1, self._parent()))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` and return ``(result, seconds)``."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        if self.trace:
            self.spans.append((name, t0, t1, self._parent()))
        return out, t1 - t0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Group the calls made inside the block under one parent span."""
        if not self.trace:
            yield
            return
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, self._parent()))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            name, t0, _, parent = self.spans[index]
            self.spans[index] = (name, t0, time.perf_counter(), parent)


def self_times(spans: list[tuple[str, float, float, int]]) -> dict[str, tuple[float, int]]:
    """Per-module (self seconds, span count); the module is the name's first part.

    A span's self time is its duration minus the time its direct children
    cover.  Children of one parent never overlap: the benchmark is a single
    thread making one call at a time.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, tuple[float, int]] = {}
    for i, (name, t0, t1, _) in enumerate(spans):
        module = name.split(".", 1)[0]
        total, count = out.get(module, (0.0, 0))
        out[module] = (total + (t1 - t0) - child_time[i], count + 1)
    return out
