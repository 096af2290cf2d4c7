"""In-memory spans: ``(name, start_ns, end_ns, parent)``.

The program under test is not edited: the runner wraps public functions
with :meth:`SpanLog.wrap` and brackets its own calls with
:meth:`SpanLog.span`.  Spans are held in four parallel arrays (a traced
paper-scale run records ~1.5M of them) and only reduced to per-name
totals after the run's root span has closed.

A layer's *self* time is its span's duration minus the part covered by
its child spans, so the self times of all spans partition the root
span exactly.  ``outer_ns`` is the inclusive time of a name counted once
per nest (``net.query_dns`` nests: scanner -> resolver -> authority).
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List


class SpanLog:
    """Append-only span store; index order is start order."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        #: index of the innermost open span (-1 outside every span)
        self.current = -1

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def begin(self, name: str, start_ns: int = 0) -> int:
        """Open a span; ``start_ns`` back-dates it (process start is
        stamped by the driver, before this log exists)."""
        index = len(self.start)
        self.name_id.append(self.intern(name))
        self.parent.append(self.current)
        self.end.append(0)
        self.current = index
        self.start.append(start_ns or time.perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self.current = self.parent[index]

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.finish(index)

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` timed as one span per call."""
        name_id = self.intern(name)
        names, starts, ends, parents = (
            self.name_id,
            self.start,
            self.end,
            self.parent,
        )
        clock = time.perf_counter_ns
        log = self

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(log.current)
            ends.append(0)
            log.current = index
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                log.current = parents[index]

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def wrap_generator(self, name: str, function: Callable) -> Callable:
        """A generator function timed as one span per resumption, so
        time the consumer spends between pulls is not charged to it."""
        log = self

        def traced(*args, **kwargs):
            iterator = function(*args, **kwargs)
            while True:
                index = log.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    log.finish(index)
                yield item

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def durations_ns(self, name: str) -> List[int]:
        """Every closed span's duration under ``name`` (for percentiles)."""
        name_id = self._ids.get(name)
        if name_id is None:
            return []
        return [
            end - start
            for this, start, end in zip(self.name_id, self.start, self.end)
            if this == name_id and end
        ]


def aggregate(log: SpanLog) -> Dict[str, Dict[str, int]]:
    """Per-name ``count`` / ``outer_ns`` / ``self_ns``.

    One pass in start order replays the open-span stack, which is what
    tells an outermost span of a name from one nested under the same
    name.  A span still open (``end == 0``) is closed at the latest
    timestamp seen, so a crashed run still aggregates.
    """
    count = len(log)
    last = max(max(log.end, default=0), max(log.start, default=0))
    covered = [0] * count
    totals = [
        {"count": 0, "outer_ns": 0, "self_ns": 0}
        for _ in log.names
    ]
    open_by_name = [0] * len(log.names)
    stack: List[int] = []
    name_ids, parents = log.name_id, log.parent
    for index in range(count):
        parent = parents[index]
        while stack and stack[-1] != parent:
            open_by_name[name_ids[stack.pop()]] -= 1
        name_id = name_ids[index]
        duration = (log.end[index] or last) - log.start[index]
        entry = totals[name_id]
        entry["count"] += 1
        if not open_by_name[name_id]:
            entry["outer_ns"] += duration
        open_by_name[name_id] += 1
        stack.append(index)
        if parent >= 0:
            covered[parent] += duration
    for index in range(count):
        duration = (log.end[index] or last) - log.start[index]
        totals[name_ids[index]]["self_ns"] += duration - covered[index]
    return dict(zip(log.names, totals))


def wrapper_cost_ns(calls: int = 50_000) -> float:
    """Cost of one empty wrapped call, for judging the traced numbers."""
    log = SpanLog()

    def nothing() -> None:
        return None

    traced = log.wrap("calibrate", nothing)
    start = time.perf_counter_ns()
    for _ in range(calls):
        nothing()
    bare = time.perf_counter_ns() - start
    start = time.perf_counter_ns()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter_ns() - start - bare) / calls)
