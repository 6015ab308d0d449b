"""Spans for the traced run: record in memory, dump as JSON lines, read back.

A span is one timed call into a voltgame module made by the benchmark.  It
records its name, start, end, parent span and workload instance id, plus
any counts read from the result the call returned.  A span's self time is
its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans in memory; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.instance: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the block; the yielded dict takes the counts of the call."""
        counts: dict = {}
        if not self.enabled:
            yield counts
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "instance": self.instance, "counts": counts}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield counts
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append((rec["start"], rec["end"]))
    out = {}
    for rec in spans:
        start, end = rec["start"], rec["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(rec["id"], [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[rec["id"]] = (end - start) - covered
    return out


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: summed self time, number of calls and summed counts."""
    selfs = self_times(spans)
    totals: dict[str, dict] = {}
    for rec in spans:
        agg = totals.setdefault(rec["name"], {"self_s": 0.0, "calls": 0, "counts": {}})
        agg["self_s"] += selfs[rec["id"]]
        agg["calls"] += 1
        for key, value in rec["counts"].items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value
    return totals
