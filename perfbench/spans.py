"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark around its own calls into the library; the
library itself is not patched.  Each span records its name, start, end,
parent span and op id, and the whole list is written out once the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or None, op id]
        self.notes = []   # (op id, key, value): counts taken where the work happens
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def note(self, key, value):
        self.notes.append((self.op, key, value))

    def durations(self):
        """Per span: (name, op id, duration s, self time s).  Self time is the
        duration minus the time covered by direct children; children nest
        strictly inside their parent because the run is single-threaded."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(name, op, end - start, end - start - child_time[i])
                for i, (name, start, end, parent, op) in enumerate(self.spans)]

    def summary(self, names):
        """``X.calls``, ``X.self_ms`` (total) and ``X.ms_p50`` (per call) for
        each name; a layer the run never entered reads 0."""
        by_name = {name: ([], []) for name in names}
        for name, _, dur, own in self.durations():
            if name in by_name:
                by_name[name][0].append(dur)
                by_name[name][1].append(own)
        out = {}
        for name, (durs, owns) in by_name.items():
            out[f"{name}.calls"] = len(durs)
            out[f"{name}.self_ms"] = 1e3 * sum(owns)
            out[f"{name}.ms_p50"] = 1e3 * statistics.median(durs) if durs else 0.0
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "notes": self.notes}, fh)
