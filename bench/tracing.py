"""In-memory spans for the traced benchmark run.

A span records name, start, end, parent span and scenario id.  Spans are
kept in a list while the run goes on and written out once at the end.
Self time is a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, scenario, failed]
        self.counts = {}
        self._open = []

    @contextmanager
    def span(self, name: str, scenario, expected=()):
        """Time the body; an exception other than `expected` marks the span failed."""
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, scenario, False]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        except expected:
            raise
        except Exception:
            record[5] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count_max(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def count_add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> list:
        """Seconds of each span not covered by its children."""
        children = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                children[s[3]].append(i)
        result = []
        for i, (_, start, end, _, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2]) for c in children[i]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            result.append(end - start - covered)
        return result

    def summary(self, names) -> dict:
        """`<span>.calls`, `<span>.self_ms` and `<span>.failed` for each name."""
        stats = {name: [0, 0.0, 0] for name in names}
        for s, self_s in zip(self.spans, self.self_times()):
            entry = stats.setdefault(s[0], [0, 0.0, 0])
            entry[0] += 1
            entry[1] += self_s * 1000.0
            entry[2] += int(s[5])
        out = {}
        for name, (calls, self_ms, failed) in stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self_ms
            out[f"{name}.failed"] = failed
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {
                "id": i,
                "name": name,
                "start_ms": (start - origin) * 1000.0,
                "end_ms": (end - origin) * 1000.0,
                "parent": parent,
                "scenario": scenario,
                "failed": failed,
            }
            for i, (name, start, end, parent, scenario, failed) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"spans": rows, "counts": self.counts}, indent=0))
