"""Shared pieces of the benchmark: correctness checks, the calibrated
clock and timing loop, statistics and process bookkeeping."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import heapq
import json
import multiprocessing
import random
import re
import resource
import signal
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, TypeVar

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

T = TypeVar("T")


def result_digest(result) -> str:
    """Short content hash of everything a cell result stores."""
    from repro.experiments.cache import result_to_dict

    payload = json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())


class Checker:
    """Counts checked cells and failures against committed digests."""

    def __init__(self, expected: dict[str, str]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, key: str, result) -> None:
        want = self.expected.get(key)
        got = result_digest(result)
        if want is None:
            self.fail(f"{key}: no committed digest")
        elif got != want:
            self.fail(f"{key}: digest {got} != committed {want}")
        else:
            self.attempted += 1


#: Seconds the calibration task takes on the reference host.  Times are
#: reported in reference seconds: host seconds scaled by how much slower
#: or faster the calibration task ran around the timed interval.
CALIBRATION_REF_S = 0.028


#: Size of the calibration samples taken while an interval runs, as a
#: share of the full task: about 2 ms, short enough to run unpreempted
#: when the sampler wakes on a core busy with a worker, so a sample
#: times the core and not its share of it.
SAMPLE_SIZE = 1 / 14


class _Event:
    __slots__ = ("time", "kind", "payload")

    def __init__(self, time_: float, kind: int, payload: int) -> None:
        self.time = time_
        self.kind = kind
        self.payload = payload

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


def calibration_task() -> float:
    """Seconds for a fixed interpreter-bound task that uses no ``repro``
    code: an integer loop, then a small event-heap loop.

    The garbage collector is off while it runs: a full collection of the
    objects a timed step left alive would otherwise land in it and double
    its time.
    """
    gc.disable()
    try:
        return _calibration_loop()
    finally:
        gc.enable()


def _calibration_loop(size: float = 1.0) -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(int(200_000 * size)):
        acc += i * i
    rng = random.Random(1)
    heap = [_Event(rng.random() * 100.0, i % 7, i) for i in range(int(1000 * size))]
    heapq.heapify(heap)
    counts: dict[int, int] = {}
    for _ in range(int(7000 * size)):
        if not heap:
            break
        event = heapq.heappop(heap)
        counts[event.kind] = counts.get(event.kind, 0) + 1
        if event.payload % 3:
            heapq.heappush(
                heap, _Event(event.time + rng.random(), (event.kind + 1) % 7, event.payload // 2)
            )
    return time.perf_counter() - t0


def _calibration_worker(conn) -> None:
    while conn.recv():
        conn.send(calibration_task())


class Clock:
    """Times intervals in reference seconds.

    A shared host can change speed by tens of percent over seconds to
    minutes.  Each interval is bracketed by runs of the calibration
    task, and its host seconds are scaled by the ratio of the reference
    calibration time to the one measured around it.  With ``width=2``
    the task runs in two worker processes at once, so the calibration
    sees the host with both cores busy, as a two-worker sweep does.
    Close the clock (or use it as a context manager) to stop them.

    Over an interval of seconds the host drifts too far from its speed
    at the ends.  With ``sample_every`` set, a thread also runs a short
    slice of the task every that many seconds while the interval runs,
    and the interval is scaled by the mean of every sample.  Use the
    thread only where this process waits on worker processes meanwhile:
    a sample shares a core with a worker, while a thread sampling beside
    this process's own work lands on the other core, which does not
    follow the speed of this one.  With ``in_process`` the slices run
    instead in this process's main thread, from an interval-timer
    signal, on the core the interval's own work runs on; their time is
    taken out of the interval's host seconds.
    """

    def __init__(
        self, width: int = 1, sample_every: Optional[float] = None, in_process: bool = False
    ) -> None:
        self.sample_every = sample_every
        self.in_process = in_process
        # Plain processes and pipes, not an executor: an executor's
        # threads would be inherited in a broken state by the sweep
        # workers forked while the clock is open.
        context = multiprocessing.get_context("spawn")
        self._workers = []
        try:
            for _ in range(width if width > 1 else 0):
                conn, child_conn = context.Pipe()
                worker = context.Process(
                    target=_calibration_worker, args=(child_conn,), daemon=True
                )
                worker.start()
                child_conn.close()
                self._workers.append((worker, conn))
            self._last = self._calibrate()
        except BaseException:
            self.close()
            raise
        self.steps: list[tuple[str, float, float, float, list[float]]] = []
        """``(label, host_s, calibration_before_s, calibration_after_s,
        samples_s)`` of every interval timed."""

    def __enter__(self) -> "Clock":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        for worker, conn in self._workers:
            with contextlib.suppress(OSError):
                conn.send(False)
            conn.close()
            worker.join(60.0)
            if worker.is_alive():
                worker.terminate()
                worker.join(60.0)
        if self._workers:
            stop_resource_tracker()
        self._workers = []

    def _calibrate(self) -> float:
        if not self._workers:
            return calibration_task()
        for _, conn in self._workers:
            conn.send(True)
        return sum(conn.recv() for _, conn in self._workers) / len(self._workers)

    def time(self, fn: Callable[[], T], label: str = "") -> tuple[float, float, T]:
        """Run ``fn``; return ``(reference_s, host_s, output)``.

        ``fn`` starts after a fresh garbage collection: in a comparison,
        a full collection falling on one side would otherwise bias the
        ratio.  Worker processes ``fn`` leaves exiting (a process pool
        shut down without waiting) are joined after the timer stops and
        before the calibration that follows.
        """
        before = self._last
        samples: list[float] = []
        gc.collect()
        with reaping_children(), self._sampling(samples) as sampled_s:
            t0 = time.perf_counter()
            value = fn()
            host_s = time.perf_counter() - t0
        host_s -= sum(sampled_s)
        self._last = self._calibrate()
        self.steps.append((label, host_s, before, self._last, samples))
        speed = statistics.mean([before, self._last, *samples])
        return host_s * CALIBRATION_REF_S / speed, host_s, value

    @contextlib.contextmanager
    def _sampling(self, samples: list[float]) -> Iterator[list[float]]:
        """Append calibration samples to ``samples`` while the block
        runs; yields the list of host seconds the samples took out of
        this process's main thread."""
        sampled_s: list[float] = []
        if self.sample_every is None:
            yield sampled_s
            return
        if self.in_process:
            def on_alarm(signum, frame) -> None:
                # The collector is off in the slice, as in calibration_task,
                # so a collection the interval's objects are due never lands
                # in a sample.
                t0 = time.perf_counter()
                collecting = gc.isenabled()
                gc.disable()
                try:
                    samples.append(_calibration_loop(SAMPLE_SIZE) / SAMPLE_SIZE)
                finally:
                    if collecting:
                        gc.enable()
                sampled_s.append(time.perf_counter() - t0)

            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.sample_every, self.sample_every)
            try:
                yield sampled_s
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            return
        stop = threading.Event()

        def sample() -> None:
            while not stop.wait(self.sample_every):
                # Not calibration_task: switching the collector off here
                # would also switch it off in a worker forked meanwhile.
                samples.append(_calibration_loop(SAMPLE_SIZE) / SAMPLE_SIZE)

        thread = threading.Thread(target=sample, daemon=True)
        thread.start()
        try:
            yield sampled_s
        finally:
            stop.set()
            thread.join()


def timed_passes(
    clock: Clock,
    passes: Callable[[], list[tuple[str, Callable[[], T]]]],
    budget_s: float,
    consume: Callable[[T], None],
    min_passes: int = 1,
) -> list[tuple[str, float, float]]:
    """Run whole passes, each a list of labelled timed steps, at least
    ``min_passes`` and then while another fits in ``budget_s`` host
    seconds.

    Each step's output goes to ``consume`` outside the timed window and
    is then dropped, so one step's objects never weigh on the next.
    Returns ``(label, reference_s, host_s)`` for every step.
    """
    times: list[tuple[str, float, float]] = []
    started = time.perf_counter()
    done = 0
    while True:
        for label, step in passes():
            ref_s, host_s, value = clock.time(step, label)
            times.append((label, ref_s, host_s))
            consume(value)
            del value
        done += 1
        elapsed = time.perf_counter() - started
        if done >= min_passes and elapsed * (done + 0.5) / done >= budget_s:
            return times


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> float:
    """Highest percentile with at least ten samples beyond it: the
    eleventh-largest sample (the maximum when there are fewer)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, len(ordered) - 11)]


def reset_peak_rss() -> bool:
    """Reset this process's resident high-water mark (Linux only)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """Resident high-water mark since the last reset, in MiB."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        status = ""
    match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
    if match:
        return int(match.group(1)) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def reaping_children(timeout_s: float = 60.0) -> Iterator[None]:
    """On leaving the block, wait for every worker process started in it
    to end."""
    before = set(multiprocessing.active_children())
    try:
        yield
    finally:
        for child in multiprocessing.active_children():
            if child in before:
                continue
            child.join(timeout_s)
            if child.is_alive():
                child.terminate()
                child.join(timeout_s)


def stop_resource_tracker() -> None:
    """Stop and wait for the helper process ``multiprocessing`` starts
    with the first spawned process.  Left alone it ends only after this
    process has exited; a later spawn starts a fresh one."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
