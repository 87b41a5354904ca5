"""Spans and counters recorded around the benchmark's calls into coverkit.

A span is ``(id, name, start_ns, end_ns, parent_id, item_id, error)``.
Spans are kept in memory and written out once, when the run ends.  Stage
names are ``<layer>.<stage>``, where the layer is the coverkit module
that the call enters.  ``NullTracer`` has the same interface and records
nothing, so the untraced run pays one extra Python call per stage.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass

    def begin_item(self, item_id):
        pass

    def end_item(self):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._next_id = 0
        self._stack = []          # open (span_id, item_id) pairs
        self._item_start = None

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def begin_item(self, item_id):
        span_id = self._new_id()
        self._stack.append((span_id, item_id))
        self._item_start = perf_counter_ns()

    def end_item(self):
        span_id, item_id = self._stack.pop()
        self.spans.append((span_id, "item", self._item_start, perf_counter_ns(),
                           None, item_id, None))

    def call(self, name, fn, *args, **kwargs):
        parent, item_id = self._stack[-1] if self._stack else (None, None)
        span_id = self._new_id()
        self._stack.append((span_id, item_id))
        error = None
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, item_id, error))

    def record(self, name, duration_s):
        """Add a finished span measured elsewhere (e.g. in a child process)."""
        span_id = self._new_id()
        self.spans.append((span_id, name, 0, int(duration_s * 1e9), None, None, None))

    def count(self, name, n=1):
        self.counts[name] += n

    # -- summaries ---------------------------------------------------------

    def stage_stats(self):
        """Per stage name: busy seconds, self seconds, calls, median ms.

        Self time is the span's duration minus the part of it that its
        child spans cover.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        durations = defaultdict(list)
        self_ns = Counter()
        for span_id, name, start, end, _, _, _ in self.spans:
            durations[name].append(end - start)
            self_ns[name] += (end - start) - _covered(children.get(span_id, ()))
        return {
            name: {
                "s": sum(ds) / 1e9,
                "self_s": self_ns[name] / 1e9,
                "calls": len(ds),
                "p50_ms": statistics.median(ds) / 1e6,
            }
            for name, ds in durations.items()
        }

    def errors(self):
        """Exception counts keyed by (layer, exception type)."""
        out = Counter()
        for _, name, _, _, _, _, error in self.spans:
            if error is not None:
                out[(name.split(".")[0], error)] += 1
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "name", "start_ns", "end_ns", "parent", "item", "error"],
                "spans": self.spans,
                "counts": dict(self.counts),
            }, fh, separators=(",", ":"))


def _covered(intervals):
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
