"""In-memory span recorder for the traced benchmark run.

A span is [name, start, end, parent, op]: times come from
time.perf_counter, parent is the index of the enclosing span (None at the
top) and op is the id of the operation the span belongs to, inherited
from the parent.  Counters sit beside the spans so that ratios are taken
where the work happens.  Nothing touches the disk until `dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op=None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, op])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    @property
    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def add(self, name: str, start: float, end: float, parent: int):
        """Record a span measured elsewhere, such as inside a child process."""
        self.spans.append([name, start, end, parent, self.spans[parent][4]])

    def add_count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def max_count(self, name: str, n: int):
        self.counts[name] = max(self.counts.get(name, 0), n)

    def total(self, name: str, op=None) -> float:
        return sum(
            end - start
            for n, start, end, _, o in self.spans
            if n == name and (op is None or o == op)
        )

    def leaf_cover(self, index: int) -> float:
        """Share of span `index` covered by the leaf spans below it."""
        children: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                children.setdefault(s[3], []).append(i)
        leaves, todo = [], list(children.get(index, []))
        while todo:
            i = todo.pop()
            if i in children:
                todo.extend(children[i])
            else:
                leaves.append(self.spans[i][1:3])
        covered, reach = 0.0, float("-inf")
        for start, end in sorted(leaves):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        _, start, end, _, _ = self.spans[index]
        return covered / (end - start) if end > start else 1.0

    def dump(self, path, extra: dict):
        keys = ("name", "start", "end", "parent", "op")
        payload = {**extra, "counts": self.counts,
                   "spans": [dict(zip(keys, s)) for s in self.spans]}
        path.write_text(json.dumps(payload, indent=1) + "\n")
