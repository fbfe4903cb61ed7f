"""In-memory spans recorded by the harness around calls into the program.

One span per call: ``name`` (the public entry point), ``layer`` (the
module it belongs to), ``start_ns``/``end_ns``, ``parent`` (the span
that caused it), ``workload`` and ``op_id`` (rungs of one request share
it).  Spans stay in memory and are written as JSON lines when the run
ends.  A disabled tracer records nothing, which is how the end-to-end
numbers are measured.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, layer: str, op_id=None, parent: int | None = None):
        """Time the body; yields the span's id (None when disabled)."""
        if not self.enabled:
            yield None
            return
        span_id = len(self.spans)
        record = {
            "id": span_id, "name": name, "layer": layer, "start_ns": 0,
            "end_ns": 0, "parent": parent, "workload": self.workload,
            "op_id": op_id,
        }
        self.spans.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            record["end_ns"] = time.perf_counter_ns()

    def adopt(self, spans: list[dict], parent: int | None) -> None:
        """Take over spans another process recorded (ids are re-based)."""
        base = len(self.spans)
        for span in spans:
            span = dict(span, id=span["id"] + base, workload=self.workload)
            span["parent"] = parent if span["parent"] is None else span["parent"] + base
            self.spans.append(span)

    def seconds(self, name: str) -> list[float]:
        """Durations of every span with this name, in recording order."""
        return [
            (s["end_ns"] - s["start_ns"]) / 1e9 for s in self.spans if s["name"] == name
        ]

    def median(self, name: str) -> float:
        return statistics.median(self.seconds(name))

    def total(self, name: str) -> float:
        return sum(self.seconds(name))

    def by_op(self, name: str) -> dict:
        """Summed duration per op_id (a rung may take several calls)."""
        out: dict = {}
        for s in self.spans:
            if s["name"] == name:
                out[s["op_id"]] = out.get(s["op_id"], 0.0) + (s["end_ns"] - s["start_ns"]) / 1e9
        return out

    def median_self(self, name: str, child: str) -> float:
        """Median over ops of a rung's time minus the next rung's.

        An op that never reached the next rung (a query no shard holds)
        keeps its whole time.
        """
        outer, inner = self.by_op(name), self.by_op(child)
        return statistics.median(outer[op] - inner.get(op, 0.0) for op in outer)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
