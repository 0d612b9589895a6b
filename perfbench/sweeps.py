"""The mm-sweep and disk-sweep workloads.

Each is the sweep behind ``repro fig4a`` or ``repro fig5b``: EDF-HP and
CCA paired on every (arrival rate, workload seed) of a paper base table.
A jobs=2 pass is what ``runner.sweep`` does -- every cell of the sweep in
one ``execute_cells`` batch, then each rate point to ``summarize``; a
jobs=1 pass is split into calibrated steps (see ``_split_steps``).  The
workload seeds are the sweep's own fixed seed list, as in the paper
figures; the benchmark seed picks the rate point the cell list starts
from.
"""

from __future__ import annotations

import gc
import random
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.factory import make_simulator
from repro.core.policy import make_policy
from repro.experiments.cache import ResultCache, result_to_dict
from repro.experiments.config import ExperimentScale
from repro.experiments.figures import DISK_RATE_SWEEP, MM_RATE_SWEEP
from repro.experiments.parallel import SweepCell, cells_for_sweep, execute_cells
from repro.metrics.summary import summarize
from repro.tracing import TraceCounters
from repro.workload.generator import generate_workload

from perfbench.harness import (
    Checker,
    Clock,
    median,
    peak_rss_mb,
    reset_peak_rss,
    tail,
    timed_passes,
)
from perfbench.spans import Tracer

#: Share of a run's seconds each jobs setting is measured for; jobs=2
#: gets more because its figures spread more.
SHARE = {1: 0.35, 2: 0.65}

#: Seconds between calibration samples taken while a jobs=2 step runs
#: (see ``Clock``).
SAMPLE_EVERY = 0.05

#: Trace event kinds reported as ``core.events.<kind>``.
EVENT_KINDS = ("lock_acquire", "dispatch", "io_start", "abort", "preempt")

#: The paper's transaction counts (1000 main-memory, 300 disk), with
#: two main-memory and four disk seeds: a whole sweep then takes 1-3 s,
#: short enough for the clock's calibration to follow the host.
SCALE = ExperimentScale("bench", 2, 4, 1.0)

SWEEPS = {"mm-sweep": MM_RATE_SWEEP, "disk-sweep": DISK_RATE_SWEEP}


def rotate(items, seed: int) -> list:
    """``items`` in sweep order, starting at a point chosen by ``seed``."""
    start = random.Random(seed).randrange(len(items))
    return list(items[start:]) + list(items[:start])


def cell_id(cell: SweepCell) -> str:
    return f"{cell.x:g}/{cell.policy}/{cell.seed}"


def run_layers(cells, tracer: Tracer) -> dict:
    """Generate, build and run each cell through the public layer calls,
    with one span around each call."""
    results = {}
    for cell in cells:
        with tracer.span("cell", cell=cell_id(cell)):
            with tracer.span("workload.generate_workload"):
                workload = generate_workload(cell.config, cell.seed)
            with tracer.span("core.make_simulator"):
                policy = make_policy(cell.policy, penalty_weight=cell.config.penalty_weight)
                simulator = make_simulator(cell.config, workload, policy)
            with tracer.span("core.run"):
                results[cell.key] = simulator.run()
        # Free the cell's workload and engine before the next cell starts,
        # as a sweep worker does.
        del workload, simulator
    return results


def _host_time(fn):
    """Host seconds of ``fn()`` and its output, timed from a fresh garbage
    collection (see ``Clock.time``)."""
    gc.collect()
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


class SweepWorkload:
    #: Per-layer metric prefixes whose layer this workload never calls.
    layers_not_run = ("mp.",)

    def __init__(self, name: str) -> None:
        self.spec = SWEEPS[name]

    def setup(self, seed: int, scratch: Path) -> None:
        self.scratch = scratch
        configs = self.spec.configs(SCALE)
        self.seeds = self.spec.seeds(SCALE)
        self.policies = self.spec.canonical_policies()
        self.order = rotate(list(configs), seed)
        self.cells = cells_for_sweep(
            {x: configs[x] for x in self.order}, self.seeds, self.policies
        )
        self.by_key = {cell.key: cell for cell in self.cells}
        pairs: dict = {}
        for cell in self.cells:
            pairs.setdefault((cell.x, cell.seed), []).append(cell)
        self.pairs = list(pairs.values())

    def warmup(self) -> None:
        run_layers(self.cells[:1], Tracer(enabled=False))

    def sweep(self, run_cells, tracer: Tracer) -> dict:
        """One pass over the sweep as ``runner.sweep`` makes it: every
        cell through ``run_cells`` in one batch, then each rate point and
        policy to ``summarize``."""
        results = run_cells(self.cells)
        self._summarize(results, tracer)
        return results

    def _summarize(self, results, tracer: Tracer) -> None:
        for rate in self.order:
            for policy in self.policies:
                with tracer.span("metrics.summarize"):
                    summarize(results[(rate, policy, seed)] for seed in self.seeds)

    def _swept(self, jobs: int):
        off = Tracer(enabled=False)
        return lambda: self.sweep(lambda cells: execute_cells(cells, jobs=jobs), off)

    def _split_steps(self, label: str) -> list:
        """A jobs=1 pass as timed steps: one ``execute_cells`` call per
        (rate, seed) pair of cells, then one step that passes every rate
        point to ``summarize``.

        Over a whole-sweep batch of seconds a shared host's speed wanders
        by about 10%, and this process runs the batch itself, so no
        thread can sample the host meanwhile without timing the batch's
        own code.  Between short steps the clock's calibration follows
        the host.  The traced run measures what the split costs against
        one batch (``experiments.split_cost``).
        """
        done: dict = {}

        def pair_step(pair):
            def step():
                results = execute_cells(pair, jobs=1)
                done.update(results)
                return results

            return step

        def summarize_step():
            self._summarize(done, Tracer(enabled=False))
            return {}

        return [(label, pair_step(pair)) for pair in self.pairs] + [(label, summarize_step)]

    def _layer_steps(self, tracer: Tracer) -> list:
        """A pass of the traced run's layer calls as timed steps: for each
        (rate, seed) pair of cells, direct calls and the same traced, in
        alternating order, so that neither the host's drift nor going
        first favours either; then one traced step that passes every rate
        point to ``summarize``."""
        off = Tracer(enabled=False)
        done: dict = {}
        steps = []
        for turn, pair in enumerate(self.pairs):

            def traced(pair=pair):
                results = run_layers(pair, tracer)
                done.update(results)
                return results

            sides = [("direct", lambda pair=pair: run_layers(pair, off)), ("traced", traced)]
            steps += sides if turn % 2 == 0 else sides[::-1]

        def summarize_step():
            self._summarize(done, tracer)
            return {}

        return steps + [("summarize", summarize_step)]

    def _split(self) -> dict:
        """The steps of ``_split_steps`` run back to back, as one step."""
        results: dict = {}
        for _, step in self._split_steps(""):
            results.update(step())
        return results

    def _consumer(self, checker: Checker, kept: dict, keep=lambda result: result):
        """Checks every cell result a step returns and keeps ``keep`` of
        the first result of each cell."""

        def consume(results) -> None:
            for key, result in results.items():
                checker.check(cell_id(self.by_key[key]), result)
                if key not in kept:
                    kept[key] = keep(result)

        return consume

    def _check_complete(self, checker: Checker, kept: dict) -> None:
        for cell in self.cells:
            if cell.key not in kept:
                checker.fail(f"{cell_id(cell)}: missing from the sweep's output")

    def _rate(self, times, label: str, index: int, steps_per_pass: int = 1) -> float:
        """Cells per second over the steps called ``label``: ``index`` 1
        for reference seconds, 2 for host seconds."""
        mine = [step[index] for step in times if step[0] == label]
        return len(self.cells) * len(mine) / steps_per_pass / sum(mine) if mine else 0.0

    # -- the sweep as a user runs it ---------------------------------------

    def measure(self, seconds: float, checker: Checker) -> dict[str, float]:
        """jobs=1 in split passes (see ``_split_steps``), then jobs=2 in
        whole-sweep batches, each with its own process pool, as
        ``runner.sweep`` runs them."""
        self.calibration = []
        # Only counts are kept, so a pass's results are freed before the
        # next pass and the peak RSS is that of one sweep.
        kept: dict = {}
        consume = self._consumer(checker, kept, lambda r: (r.n_committed, r.n_missed))
        passes = {
            1: lambda: self._split_steps("jobs1"),
            2: lambda: [("jobs2", self._swept(2))],
        }
        # While a jobs=2 batch runs, this process only waits on its pool,
        # so a thread can sample the host's speed.
        sample_every = {1: None, 2: SAMPLE_EVERY}
        rates = {}
        rss = 0.0
        for jobs in (1, 2):
            label = f"jobs{jobs}"
            reset_peak_rss()
            with Clock(width=jobs, sample_every=sample_every[jobs]) as clock:
                try:
                    times = timed_passes(clock, passes[jobs], seconds * SHARE[jobs], consume)
                except Exception as exc:  # a failed sweep fails every cell
                    checker.fail(f"jobs={jobs}: {type(exc).__name__}: {exc}", len(self.cells))
                    times = []
            per_pass = len(passes[jobs]())
            rates[jobs] = tuple(self._rate(times, label, i, per_pass) for i in (1, 2))
            self.calibration += clock.steps
            if jobs == 1:
                rss = peak_rss_mb()
        self._check_complete(checker, kept)
        committed = sum(counts[0] for counts in kept.values())
        missed = sum(counts[1] for counts in kept.values())
        self.host_metrics = {
            "host_cells_per_s": rates[1][1],
            "host_cells_per_s_jobs2": rates[2][1],
        }
        return {
            "cells_per_s": rates[1][0],
            "cells_per_s_jobs2": rates[2][0],
            "peak_rss_mb": rss,
            "miss_percent": 100.0 * missed / committed if committed else 0.0,
        }

    # -- the traced run ----------------------------------------------------

    def traced(self, seconds: float, checker: Checker):
        clock = Clock()
        self.calibration = clock.steps
        tracer = Tracer()
        off = Tracer(enabled=False)
        kept: dict = {}
        consume = self._consumer(checker, kept)

        layer_times = timed_passes(
            clock, lambda: self._layer_steps(tracer), seconds / 2, consume, min_passes=2
        )
        # Four ways through the whole sweep, timed in reference seconds
        # and run interleaved, in forward and then reversed order, so
        # neither the host's drift nor going first favours any of them.
        sides = [
            ("direct", lambda: self.sweep(lambda c: run_layers(c, off), off)),
            ("jobs1", self._swept(1)),
            ("split", self._split),
            ("jobs2", self._swept(2)),
        ]
        times = timed_passes(clock, lambda: sides + sides[::-1], seconds / 2, consume)
        self._check_complete(checker, kept)
        spent = {label: sum(t[1] for t in times if t[0] == label) for label, _ in sides}
        layer_spent = {
            label: sum(t[1] for t in layer_times if t[0] == label)
            for label in ("direct", "traced", "summarize")
        }
        traced_passes = sum(1 for t in layer_times if t[0] == "summarize")

        per_cell = {
            name: {cell: median(ss) for cell, ss in tracer.self_by_cell(name).items()}
            for name in ("workload.generate_workload", "core.make_simulator", "core.run")
        }
        gen = sum(per_cell["workload.generate_workload"].values())
        build = sum(per_cell["core.make_simulator"].values())
        run = sum(per_cell["core.run"].values())
        summ = median(tracer.self_times("metrics.summarize"))
        layer_total = gen + build + run + summ * len(self.order) * len(self.policies)
        cell_ms = [span.duration_s * 1e3 for span in tracer.spans if span.name == "cell"]

        # Event and operation counts: a TraceCounters hook on the cells of
        # two seeds per rate point (it triples a cell's cost).
        counted = [cell for cell in self.cells if cell.seed in self.seeds[:2]]
        counters = TraceCounters()
        ops = 0
        for cell in counted:
            workload = generate_workload(cell.config, cell.seed)
            ops += sum(len(spec.operations) for spec in workload)
            policy = make_policy(cell.policy, penalty_weight=cell.config.penalty_weight)
            result = make_simulator(cell.config, workload, policy, trace=counters).run()
            checker.check(cell_id(cell), result)
        events = sum(counters.counts.values())
        ids = {cell_id(cell) for cell in counted}
        counted_gen, counted_run = (
            sum(v for k, v in per_cell[name].items() if k in ids)
            for name in ("workload.generate_workload", "core.run")
        )

        # Reference vs kernel run(), interleaved, on one cell per rate point.
        engine_s = {"kernel": 0.0, "reference": 0.0}
        for index, rate in enumerate(self.order):
            rate_cells = [c for c in self.cells if c.x == rate]
            cell = rate_cells[index % len(rate_cells)]
            workload = generate_workload(cell.config, cell.seed)
            for engine in engine_s:
                policy = make_policy(cell.policy, penalty_weight=cell.config.penalty_weight)
                simulator = make_simulator(cell.config.replace(engine=engine), workload, policy)
                seconds_, result = _host_time(simulator.run)
                engine_s[engine] += seconds_
                checker.check(cell_id(cell), result)

        put_ms, get_ms, hit_ratio = self._cache_pass(kept, checker)
        committed = sum(r.n_committed for r in kept.values())
        restarts = sum(r.total_restarts for r in kept.values())
        metrics = {
            "cell.samples": float(len(cell_ms)),
            "cell.ms_p50": median(cell_ms),
            "cell.ms_tail": tail(cell_ms),
            "workload.gen_ms": median(per_cell["workload.generate_workload"].values()) * 1e3,
            "workload.share": gen / layer_total,
            "workload.ops_per_cell": ops / len(counted),
            "workload.gen_us_per_op": counted_gen * 1e6 / ops,
            "core.build_ms": median(per_cell["core.make_simulator"].values()) * 1e3,
            "core.run_ms": median(per_cell["core.run"].values()) * 1e3,
            "core.run_share": run / layer_total,
            "core.run_us_per_event": counted_run * 1e6 / events,
            "core.events": float(events),
            "core.useful_ratio": committed / (committed + restarts),
            "core.kernel_speedup": engine_s["reference"] / engine_s["kernel"],
            "metrics.summarize_ms": summ * 1e3,
            "experiments.overhead_share": (spent["jobs1"] - spent["direct"]) / spent["jobs1"],
            "experiments.jobs2_speedup": spent["jobs1"] / spent["jobs2"],
            "experiments.split_cost": (spent["split"] - spent["jobs1"]) / spent["jobs1"],
            "experiments.cache_put_ms": put_ms,
            "experiments.cache_get_ms": get_ms,
            "experiments.cache_hit_ratio": hit_ratio,
            "trace.cells_per_s": len(self.cells) * traced_passes
            / (layer_spent["traced"] + layer_spent["summarize"]),
            "trace.overhead_share": layer_spent["traced"] / layer_spent["direct"] - 1.0,
        }
        for kind in EVENT_KINDS:
            metrics[f"core.events.{kind}"] = float(counters.count(kind))
        return metrics, tracer

    def _cache_pass(self, results, checker: Checker):
        """Put every result into a fresh cache, then get every one back."""
        root = Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        try:
            cache = ResultCache(root)
            puts, gets, hits = [], [], 0
            for cell in self.cells:
                seconds_, _ = _host_time(
                    lambda: cache.put(cell.config, cell.seed, cell.policy, results[cell.key])
                )
                puts.append(seconds_)
            for cell in self.cells:
                seconds_, got = _host_time(
                    lambda: cache.get(cell.config, cell.seed, cell.policy)
                )
                gets.append(seconds_)
                if got is None:
                    checker.fail(f"{cell_id(cell)}: cache miss after put")
                elif result_to_dict(got) != result_to_dict(results[cell.key]):
                    checker.fail(f"{cell_id(cell)}: cache round trip changed the result")
                else:
                    hits += 1
                    checker.attempted += 1
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return median(puts) * 1e3, median(gets) * 1e3, hits / len(self.cells)
