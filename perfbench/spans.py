"""In-memory spans recorded by the benchmark around calls into the program.

A span has a name (the public function called), start and end times from
``time.perf_counter``, the index of its parent span, the job it belongs to
and a few attributes (instance kind, counting mode).  Spans stay in memory
until the run ends; ``dump`` writes them out.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.job = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {
            "id": index,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "job": self.job,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def self_times(self) -> dict:
        """Seconds per span name not covered by child spans, summed over the run."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
        return dict(out)

    def root(self, span: dict) -> dict:
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
        return span

    def per_job(self, name: str, root: str = "job", **attrs) -> list[float]:
        """Seconds spent in spans called ``name`` (with matching attributes)
        under each ``root`` span, one total per job that has such a root."""
        totals: dict = {s["job"]: 0.0 for s in self.spans if s["name"] == root and s["parent"] is None}
        for s in self.spans:
            if s["name"] != name or any(s.get(k) != v for k, v in attrs.items()):
                continue
            top = self.root(s)
            if top["name"] == root and top["job"] in totals:
                totals[top["job"]] += s["end"] - s["start"]
        return list(totals.values())

    def median_per_job(self, name: str, root: str = "job", **attrs) -> float:
        values = self.per_job(name, root, **attrs)
        return statistics.median(values) if values else 0.0

    def median_call(self, name: str, **attrs) -> float:
        """Median duration of one call of ``name`` anywhere in the run."""
        values = [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())
        ]
        return statistics.median(values) if values else 0.0
