"""The mp-sweep workload: the ``ext-multiprocessor`` study.

The untraced run calls the study itself under
``parallel.execution(jobs=J)``.  The study takes no seed argument, so
its workload seeds are the ones its ``ExperimentScale`` fixes; the
benchmark seed does not change the inputs.  The traced run rebuilds the
study's cells from the same public calls the study makes, with a span
around each, and checks that it arrives at the same series.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.policy import CCAPolicy, EDFPolicy
from repro.experiments import parallel
from repro.experiments.config import MAIN_MEMORY_BASE, ExperimentScale
from repro.experiments.extensions import ext_multiprocessor
from repro.metrics.summary import summarize
from repro.mp.simulator import MultiprocessorSimulator
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

#: Benchmark-sized study: two seeds of 150 transactions per CPU count.
#: One study takes about 3.4 s on a 2-core Xeon VM, so a run fits three
#: or more at each jobs setting.
SCALE = ExperimentScale("bench", 2, 1, 0.15)
CPU_COUNTS = (1, 2, 4)
POLICIES = {"EDF-HP-MP": lambda: EDFPolicy(), "CCA-MP": lambda: CCAPolicy(1.0)}

#: Seconds between calibration samples taken while a study runs.
SAMPLE_EVERY = 0.1


def study_cells(scale: ExperimentScale):
    """(n_cpus, config, seeds) as ``ext_multiprocessor`` builds them."""
    for n_cpus in CPU_COUNTS:
        config = scale.scale_config(
            MAIN_MEMORY_BASE.replace(arrival_rate=8.0 * n_cpus, db_size=1000)
        )
        yield n_cpus, config, scale.seeds_for(config)[:5]


def cell_id(n_cpus: int, policy: str, seed: int) -> str:
    return f"cpu{n_cpus}/{policy}/{seed}"


class MpWorkload:
    layers_not_run = ("core.", "experiments.")

    def __init__(self, expected_series: dict[str, list[list[float]]]) -> None:
        self.expected_series = expected_series

    def setup(self, seed: int, scratch: Path) -> None:
        del seed, scratch  # the study's seeds are fixed by SCALE
        self.plan = list(study_cells(SCALE))
        self.n_cells = sum(len(seeds) for _, _, seeds in self.plan) * len(POLICIES)

    def warmup(self) -> None:
        n_cpus, config, seeds = self.plan[0]
        workload = generate_workload(config, seeds[0])
        MultiprocessorSimulator(config, workload, EDFPolicy(), n_cpus=n_cpus).run()

    def _check_series(self, checker: Checker, series) -> None:
        per_point = self.n_cells // (len(CPU_COUNTS) * len(POLICIES))
        for name, points in self.expected_series.items():
            got = [list(point) for point in series.get(name, [])]
            for index, want in enumerate(points):
                if index < len(got) and got[index] == want:
                    checker.attempted += per_point
                else:
                    checker.fail(f"{name} point {want}: got {got[index:index + 1]}", per_point)

    # -- the study as a user runs it ---------------------------------------

    def measure(self, seconds: float, checker: Checker) -> dict[str, float]:
        # The study runs in this process, so the clock samples the host
        # from this process's main thread while it runs (see ``Clock``).
        clock = Clock(sample_every=SAMPLE_EVERY, in_process=True)
        self.calibration = clock.steps
        figures = []

        def consume(figure) -> None:
            self._check_series(checker, figure.series)
            figures[:] = figures or [figure]

        def study(jobs: int):
            def run():
                with parallel.execution(jobs=jobs):
                    return ext_multiprocessor(SCALE)

            return f"jobs{jobs}", run

        # Both settings run the same in-process study, so their studies
        # alternate over the whole run and share the host's drift; the
        # peak RSS covers both.
        reset_peak_rss()
        try:
            times = timed_passes(clock, lambda: [study(1), study(2)], seconds, consume)
        except Exception as exc:  # a failed study fails every cell in it
            checker.fail(f"{type(exc).__name__}: {exc}", self.n_cells)
            times = []
        rss = peak_rss_mb()
        rates = {}
        for jobs in (1, 2):
            mine = [(ref_s, host_s) for label, ref_s, host_s in times if label == f"jobs{jobs}"]
            rates[jobs] = (
                median([self.n_cells / ref_s for ref_s, _ in mine]),
                self.n_cells * len(mine) / sum(host_s for _, host_s in mine) if mine else 0.0,
            )
        miss = 0.0
        if figures:
            # Every point averages runs of equal size that commit every
            # transaction, so the mean of the points is the pooled rate.
            points = [y for series in figures[0].series.values() for _, y in series]
            miss = sum(points) / len(points)
        self.host_metrics = {
            "host_cells_per_s": rates[1][1],
            "host_cells_per_s_jobs2": rates[2][1],
        }
        return {
            "cells_per_s": rates[1][0],
            "cells_per_s_jobs2": rates[2][0],
            "peak_rss_mb": rss,
            "miss_percent": miss,
        }

    # -- the traced run ----------------------------------------------------

    def _layers(self, tracer: Tracer):
        results = {}
        series: dict[str, list[list[float]]] = {name: [] for name in POLICIES}
        ops = 0
        for n_cpus, config, seeds in self.plan:
            per_policy: dict[str, list] = {name: [] for name in POLICIES}
            for seed in seeds:
                with tracer.span("workload.generate_workload", cell=f"cpu{n_cpus}/{seed}"):
                    workload = generate_workload(config, seed)
                ops += sum(len(spec.operations) for spec in workload)
                for name, make_policy in POLICIES.items():
                    key = cell_id(n_cpus, name, seed)
                    with tracer.span("cell", cell=key):
                        with tracer.span("mp.construct"):
                            simulator = MultiprocessorSimulator(
                                config, workload, make_policy(), n_cpus=n_cpus
                            )
                        with tracer.span(f"mp.run.cpu{n_cpus}"):
                            result = simulator.run()
                    results[key] = result
                    per_policy[name].append(result)
            for name, runs in per_policy.items():
                with tracer.span("metrics.summarize"):
                    miss = summarize(runs).miss_percent.mean
                series[name].append([float(n_cpus), miss])
        return results, series, ops

    def traced(self, seconds: float, checker: Checker):
        clock = Clock()
        self.calibration = clock.steps
        tracer = Tracer()
        first = []

        def consume(value) -> None:
            results, series, _ = value
            self._check_series(checker, series)
            for key, result in results.items():
                checker.check(key, result)
            first[:] = first or [value]

        # Untraced against traced replicas, timed in reference seconds and
        # run interleaved, in forward and then reversed order, so neither
        # the host's drift nor going first favours either.
        sides = [
            ("direct", lambda: self._layers(Tracer(enabled=False))),
            ("traced", lambda: self._layers(tracer)),
        ]
        times = timed_passes(clock, lambda: sides + sides[::-1], seconds, consume, min_passes=2)
        spent = {label: sum(t[1] for t in times if t[0] == label) for label, _ in sides}
        traced_rate = median(
            [self.n_cells / ref_s for label, ref_s, _ in times if label == "traced"]
        )
        results, _, ops = first[0]

        def per_cell(name: str) -> dict[str, float]:
            return {k: median(v) for k, v in tracer.self_by_cell(name).items()}

        gen = per_cell("workload.generate_workload")
        construct = per_cell("mp.construct")
        run_by_cpu = {n: per_cell(f"mp.run.cpu{n}") for n in CPU_COUNTS}
        run_all = {k: v for runs in run_by_cpu.values() for k, v in runs.items()}
        summ = median(tracer.self_times("metrics.summarize"))
        n_summaries = len(CPU_COUNTS) * len(POLICIES)
        layer_total = (
            sum(gen.values()) + sum(construct.values()) + sum(run_all.values())
            + summ * n_summaries
        )
        cca = sum(v for k, v in run_all.items() if "/CCA-MP/" in k)
        edf = sum(v for k, v in run_all.items() if "/EDF-HP-MP/" in k)
        committed = sum(r.n_committed for r in results.values())
        restarts = sum(r.total_restarts for r in results.values())
        cell_ms = [s.duration_s * 1e3 for s in tracer.spans if s.name == "cell"]
        metrics = {
            "cell.samples": float(len(cell_ms)),
            "cell.ms_p50": median(cell_ms),
            "cell.ms_tail": tail(cell_ms),
            "workload.gen_ms": median(gen.values()) * 1e3,
            "workload.share": sum(gen.values()) / layer_total,
            "workload.ops_per_cell": ops / len(gen),
            "workload.gen_us_per_op": sum(gen.values()) * 1e6 / ops,
            "mp.cca_cost_ratio": cca / edf,
            "mp.useful_ratio": committed / (committed + restarts),
            "metrics.summarize_ms": summ * 1e3,
            "trace.cells_per_s": traced_rate,
            "trace.overhead_share": (spent["traced"] - spent["direct"]) / spent["direct"],
        }
        for n_cpus, runs in run_by_cpu.items():
            metrics[f"mp.run_ms.cpu{n_cpus}"] = sum(runs.values()) / len(runs) * 1e3
        return metrics, tracer
