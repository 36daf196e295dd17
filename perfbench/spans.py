"""In-memory span recorder and self-time arithmetic for the traced run.

A span is [id, name, start, end, parent id].  Spans nest strictly within one
thread, so a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [sid, name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of every span, by span id."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for _sid, _name, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: summed self time, summed duration and call count."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    wall_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, name, start, end, _parent in spans:
        self_s[name] += own[sid]
        wall_s[name] += end - start
        calls[name] += 1
    return dict(self_s), dict(wall_s), dict(calls)
