"""Spans recorded by the harness around its calls into each layer.

A span is (id, name, start, end, parent, workload); times are seconds
since the worker process started measuring.  ``Spans.span`` doubles as
the harness's stopwatch: callers read ``.seconds`` off the yielded
span, so a layer timing and its span are the same measurement.  Spans
are kept only when a traced pass asked for them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent")

    def __init__(self, id: int, name: str, start: float,
                 parent: Optional[int]) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    def __init__(self, workload: str, keep: bool) -> None:
        self.workload = workload
        self.keep = keep
        self.rows: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._t0 = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def add(self, name: str, start: float, end: float,
            parent: Optional[int]) -> Span:
        """Record a span measured elsewhere (an ``ExecutionTrace``
        node), on this recorder's clock."""
        span = Span(self._next_id, name, start, parent)
        span.end = end
        self._next_id += 1
        if self.keep:
            self.rows.append(span)
        return span

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = self.add(name, self.now(), 0.0, parent)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = self.now()
            self._stack.pop()

    def to_json(self) -> List[Dict[str, Any]]:
        return [
            {
                "id": s.id, "name": s.name, "start": s.start,
                "end": s.end, "parent": s.parent,
                "workload": self.workload,
            }
            for s in self.rows
        ]
