"""In-memory spans recorded around calls to the program's public functions.

A span is (name, start_ns, end_ns, parent, op): `parent` is the index of the
enclosing span (-1 at the top) and `op` numbers the benchmark op that caused
it (a CLI call; on sweep, a suite call), so the spans of one op share an
identifier.  A layer's self time is its
spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1

    def op(self, fn, *args):
        """Run one benchmark op as a root span named 'op'."""
        self._op += 1
        return self.call("op", fn, *args)

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called `name`; an exception
        propagates after the span is closed."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start - child_ns[i]) / 1e9
        return totals

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def write(self, path) -> None:
        """One JSON object per line: name, start and end in ns, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
