"""In-memory spans around the benchmark's calls into the program's layers.

A span has a name, a start and end time, and the span that encloses it.
Names read ``<scope>.<layer>.<step>``, e.g. ``direct.aig.lower``: the layer
is the second-to-last part.  Top-level spans (``setup`` and ``round``) mark
the phases that per-layer figures are taken from.  A disabled tracer
records nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as a child of the innermost open span."""
        if not self.enabled:
            yield
            return
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def _by_phase(self, value, phase_name: str | None) -> dict[str, float]:
        """Median over top-level phases of ``value(span)`` summed per key.

        ``value`` returns (key, amount) for a span.  With ``phase_name``,
        only phases of that name count.
        """
        sums: dict[int, dict[str, float]] = {}
        for k, s in enumerate(self.spans):
            if s["parent"] is None:
                continue
            phase = k
            while self.spans[phase]["parent"] is not None:
                phase = self.spans[phase]["parent"]
            if phase_name is not None and self.spans[phase]["name"] != phase_name:
                continue
            key, amount = value(k, s)
            bucket = sums.setdefault(phase, {})
            bucket[key] = bucket.get(key, 0.0) + amount
        merged: dict[str, list[float]] = {}
        for bucket in sums.values():
            for key, amount in bucket.items():
                merged.setdefault(key, []).append(amount)
        return {key: statistics.median(v) for key, v in merged.items()}

    def medians(self) -> dict[str, float]:
        """Per span name: its summed duration per phase, median over phases."""
        return self._by_phase(lambda k, s: (s["name"], s["end"] - s["start"]), None)

    def self_times(self, phase_name: str) -> dict[str, float]:
        """Per layer: span time minus the time of the spans nested in it.

        Child spans of one parent do not overlap, so the nested part is the
        sum of the children's durations.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]

        def own(k, s):
            return s["name"].split(".")[-2], s["end"] - s["start"] - child_time[k]

        return self._by_phase(own, phase_name)
