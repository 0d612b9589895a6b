"""In-memory span recorder used by the traced benchmark run.

Spans are recorded by the benchmark around its own calls into each
layer (never inside the program).  Each span has a name, start, end,
the span that caused it and the cell it belongs to, so a layer's self
time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    cell: Optional[str]
    start: float
    end: float = 0.0
    child_s: float = field(default=0.0, repr=False)

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # Children of one span run one after another on one thread, so
        # the interval they cover is the sum of their durations.
        return self.duration_s - self.child_s

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "cell": self.cell,
            "start_s": self.start,
            "end_s": self.end,
            "self_s": self.self_s,
        }


class Tracer:
    """Records nested spans; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        record = Span(
            sid=len(self.spans),
            name=name,
            parent=parent.sid if parent is not None else None,
            cell=cell if cell is not None or parent is None else parent.cell,
            start=time.perf_counter(),
        )
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.child_s += record.duration_s

    def self_times(self, name: str) -> list[float]:
        """Self time in seconds of every closed span called ``name``."""
        return [s.self_s for s in self.spans if s.name == name]

    def self_by_cell(self, name: str) -> dict[str, list[float]]:
        """Self times of spans called ``name``, grouped by cell."""
        grouped: dict[str, list[float]] = {}
        for s in self.spans:
            if s.name == name and s.cell is not None:
                grouped.setdefault(s.cell, []).append(s.self_s)
        return grouped
