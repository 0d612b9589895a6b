"""Schedule tracing: structured event logs and ASCII schedule charts.

:class:`EventLog` is a ready-made ``trace`` hook for
:class:`~repro.core.simulator.RTDBSimulator` (and the multiprocessor
variant).  It records every scheduler event with transaction objects
flattened to ids, so the log is plain data:

    log = EventLog()
    RTDBSimulator(config, workload, policy, trace=log).run()
    log.to_jsonl("schedule.jsonl")
    print(log.gantt())

The Gantt view reconstructs CPU occupancy intervals from
dispatch/preempt/commit/block events — the quickest way to *see* a
preemption storm, a noncontributing execution, or CCA idling through an
IO wait.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterator, Optional

from repro.sim.stream import flatten_event

#: Event kinds that take the CPU away from the running transaction.
_CPU_RELEASING = ("preempt", "commit", "io_start", "lock_wait", "drop")

#: The trace event catalog: every event kind the single-CPU simulator
#: emits, mapped to the fields each record carries (after the
#: :class:`EventLog` flattens transactions to ids).  Hooks may rely on
#: exactly these kinds and fields; ``tests/core/test_trace_schema.py``
#: pins the catalog so instrumentation cannot silently drift.
EVENT_SCHEMA: dict[str, tuple[str, ...]] = {
    "arrival": ("time", "tx"),
    "dispatch": ("time", "tx"),
    "preempt": ("time", "tx"),
    "io_start": ("time", "tx"),
    "io_complete": ("time", "tx"),
    "io_stale": ("time", "tx"),
    "lock_acquire": ("time", "tx", "item", "exclusive"),
    "lock_wait": ("time", "tx", "item", "holders"),
    "lock_wake": ("time", "tx"),
    "lock_release": ("time", "tx", "items", "reason"),
    "deadlock_break": ("time", "tx", "by"),
    "decision": ("time", "tx", "node"),
    "commit": ("time", "tx"),
    "abort": ("time", "tx", "by", "cause"),
    "drop": ("time", "tx"),
}


@dataclasses.dataclass(frozen=True)
class CpuInterval:
    """One contiguous stretch of CPU time for one transaction."""

    tid: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceCounters:
    """Tallies trace events without storing them — a cheap hook for
    long sweeps.

    Usable anywhere a trace hook is accepted (simulators, the parallel
    sweep executor).  Keeps a count per event kind, a running sum of
    every numeric field, and the last-seen fields of each kind, so
    callers can aggregate e.g. ``sweep_end`` counters across many
    sweeps::

        counters = TraceCounters()
        sweep(configs, seeds, trace=counters)
        counters.count("sweep_cell")          # cells completed
        counters.total("sweep_end", "cache_hits")
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.sums: dict[tuple[str, str], float] = {}
        self.last: dict[str, dict] = {}

    def __call__(self, name: str, /, **fields) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1
        self.last[name] = fields
        for key, value in fields.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            slot = (name, key)
            self.sums[slot] = self.sums.get(slot, 0.0) + value

    def count(self, name: str) -> int:
        """How many events of this kind were seen."""
        return self.counts.get(name, 0)

    def total(self, name: str, field: str) -> float:
        """Sum of a numeric field across all events of one kind."""
        return self.sums.get((name, field), 0.0)

    def sweep_summary(self) -> str:
        """One line summarizing executor counters seen so far, e.g.
        ``"40 cells, 40 cache hits, 0 sims, 0.0 sims/s"``."""
        cells = int(self.total("sweep_end", "cells"))
        hits = int(self.total("sweep_end", "cache_hits"))
        run = int(self.total("sweep_end", "cells_run"))
        elapsed = self.total("sweep_end", "elapsed")
        rate = run / elapsed if elapsed > 0 else 0.0
        line = f"{cells} cells, {hits} cache hits, {run} sims, {rate:.1f} sims/s"
        failures = int(self.total("sweep_end", "failures"))
        if failures:
            retries = int(self.total("sweep_end", "retries"))
            skipped = int(self.total("sweep_end", "skipped"))
            line += f", {failures} failures ({retries} retried, {skipped} skipped)"
        return line


class EventLog:
    """Records simulator trace events as plain dictionaries."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def __call__(self, name: str, /, **fields) -> None:
        # Flattening (transaction-like values to tids) is shared with
        # the streaming sinks, so an in-memory log and a spilled JSONL
        # stream hold byte-identical records.
        self.events.append(flatten_event(name, fields))

    def close(self) -> None:
        """No-op: an in-memory log has nothing to flush.  Present so an
        ``EventLog`` satisfies the :class:`~repro.sim.stream.TraceSink`
        protocol and sweeps can treat all sinks uniformly."""

    def __len__(self) -> int:
        return len(self.events)

    def of(self, name: str) -> list[dict]:
        """All events of one kind, in order."""
        return [event for event in self.events if event["event"] == name]

    def kind_counts(self) -> dict[str, int]:
        """Event count per kind, sorted by descending count then name."""
        counts: dict[str, int] = {}
        for event in self.events:
            kind = event["event"]
            counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items(), key=lambda item: (-item[1], item[0])))

    def kind_table(self) -> str:
        """An aligned two-column table of event counts per kind."""
        counts = self.kind_counts()
        if not counts:
            return "(no events recorded)"
        width = max(len(kind) for kind in counts)
        lines = [f"{'event'.ljust(width)}  count", f"{'-' * width}  -----"]
        for kind, count in counts.items():
            lines.append(f"{kind.ljust(width)}  {count:5d}")
        return "\n".join(lines)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.events)

    def to_jsonl(self, path: str | Path) -> Path:
        """Write one JSON object per line (creating any missing parent
        directories); returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for event in self.events:
                handle.write(json.dumps(event) + "\n")
        return path

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "EventLog":
        """Read a log written by :meth:`to_jsonl` — already flattened, so
        it replays straight into offline analyses (``repro certify``)."""
        log = cls()
        with open(path) as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if not isinstance(record, dict) or "event" not in record:
                    raise ValueError(
                        f"{path}:{line_no}: not a trace event record"
                    )
                log.events.append(record)
        return log

    # -- schedule reconstruction -----------------------------------------

    def cpu_intervals(self) -> list[CpuInterval]:
        """CPU occupancy intervals reconstructed from the event stream.

        Works for the single-CPU simulator, where at most one
        transaction runs at a time: a ``dispatch`` opens an interval and
        the next CPU-releasing event of the same transaction (or the
        next dispatch) closes it.  An interval still open when the log
        ends (the run finished while a transaction held the CPU) is
        closed at the last event's timestamp.
        """
        intervals: list[CpuInterval] = []
        current: Optional[tuple[int, float]] = None
        last_time = 0.0
        for event in self.events:
            kind = event["event"]
            time = event.get("time", 0.0)
            last_time = max(last_time, time)
            if kind == "dispatch":
                if current is not None and current[1] < time:
                    intervals.append(CpuInterval(current[0], current[1], time))
                current = (event["tx"], time)
            elif kind in _CPU_RELEASING and current is not None:
                if event.get("tx") == current[0]:
                    if current[1] < time:
                        intervals.append(CpuInterval(current[0], current[1], time))
                    current = None
        if current is not None and current[1] < last_time:
            intervals.append(CpuInterval(current[0], current[1], last_time))
        return intervals

    def gantt(
        self,
        width: int = 72,
        max_rows: int = 20,
        until: Optional[float] = None,
    ) -> str:
        """An ASCII Gantt chart of CPU occupancy.

        One row per transaction (the ``max_rows`` with the most CPU
        time), ``#`` marking buckets in which the transaction held the
        CPU.  Rows are sorted by first dispatch.
        """
        intervals = self.cpu_intervals()
        if not intervals:
            return "(no CPU activity recorded)"
        horizon = until if until is not None else max(iv.end for iv in intervals)
        if horizon <= 0:
            return "(empty horizon)"
        per_tid: dict[int, list[CpuInterval]] = {}
        for interval in intervals:
            per_tid.setdefault(interval.tid, []).append(interval)
        busiest = sorted(
            per_tid,
            key=lambda tid: sum(iv.duration for iv in per_tid[tid]),
            reverse=True,
        )[:max_rows]
        shown = sorted(busiest, key=lambda tid: per_tid[tid][0].start)

        bucket = horizon / width
        lines = [f"CPU schedule  0 .. {horizon:.6g} ms  ({bucket:.3g} ms/column)"]
        for tid in shown:
            cells = [" "] * width
            for interval in per_tid[tid]:
                first = min(width - 1, int(interval.start / bucket))
                last = min(width - 1, int(max(interval.start, interval.end - 1e-12) / bucket))
                for column in range(first, last + 1):
                    cells[column] = "#"
            lines.append(f"tx{tid:>5d} |{''.join(cells)}|")
        hidden = len(per_tid) - len(shown)
        if hidden > 0:
            lines.append(f"(+{hidden} more transactions not shown)")
        return "\n".join(lines)
