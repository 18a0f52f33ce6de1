"""Spans of a traced run: kept in memory, written out when the run ends."""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records one span per ``with tracer.span(name):`` block.

    A span is a dict with its name, start and end (``time.perf_counter``),
    the index of the span open around it (``parent``) and the run id current
    when it opened. Spans of one repetition of a workload share a run id.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": self._open[-1] if self._open else None, "run": self.run_id}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out.append(s["end"] - s["start"] - covered)
    return out
