"""Spans and counters recorded around the benchmark's calls into eprsim.

A span is one call into a layer's public function: its name is
``<layer>.<function>``, and it records start, end, parent span and the
request it belongs to. Spans stay in memory and are written out once,
when the run ends. A disabled tracer records nothing and costs one
attribute test per call site.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.request = -1
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        record = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "error": False,
        }
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield record
        except BaseException:
            record["error"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] += value

    def error(self, layer: str) -> None:
        """Charge a failed request to the layer whose answer was wrong."""
        if self.enabled:
            self.counts[f"{layer}.errors"] += 1

    def busy(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Per layer: span time not covered by child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            out[layer] += s["end"] - s["start"] - child_time[s["id"]]
        return out

    def write(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": self.spans, "counts": dict(self.counts)}, fh)
