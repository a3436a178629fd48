"""In-memory spans for the benchmark's traced runs.

A span is one call into a layer, timed from the benchmark's own code:
name ("<layer>.<call>"), group (the frame or round it belongs to), parent
(the span that caused it), start and end in perf_counter seconds. Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        # [name, group, parent, start, end]
        self.spans: list[list] = []

    def add(self, name: str, start: float, end: float, group=None, parent=None) -> int:
        self.spans.append([name, group, parent, start, end])
        return len(self.spans) - 1

    def open(self, name: str, group=None, parent=None) -> int:
        return self.add(name, time.perf_counter(), None, group, parent)

    def close(self, sid: int) -> float:
        end = time.perf_counter()
        self.spans[sid][4] = end
        return end - self.spans[sid][3]

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Children of one parent run one after another on one thread, so
        their durations add without overlap.
        """
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] is not None:
                own[s[2]] -= s[4] - s[3]
        return own

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            out[s[0]] = out.get(s[0], 0.0) + own
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: sample count, p50 and p99 in ms, total and self seconds."""
        own = self.self_by_name()
        out = {}
        for name in sorted(own):
            d = self.durations(name)
            out[name] = {
                "n": len(d),
                "p50_ms": 1e3 * quantile(d, 0.50),
                "p99_ms": 1e3 * quantile(d, 0.99),
                "total_s": sum(d),
                "self_s": own[name],
            }
        return out

    def write(self, path: Path, meta: dict) -> None:
        rows = [[n, g, p, a - self.t0, b - self.t0] for n, g, p, a, b in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"meta": meta, "columns": ["name", "group", "parent", "start_s", "end_s"],
                       "spans": rows}, fh)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; the sample count is reported beside it."""
    if not values:
        raise ValueError("no samples")
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]
