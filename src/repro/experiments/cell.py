"""The one sweep-cell runner and its payload.

A *cell* is the atomic unit of every paper experiment: simulate one
configuration for one seed under one policy.  :func:`simulate_cell` is
the only place that turns a cell into a simulation — the executor's
workers, the kernel→reference healing path, quarantine capture and
replay, ``repro trace``/``certify``/``profile`` all call it — and
:class:`CellOutcome` is the only payload it returns.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from repro.config import SimulationConfig
from repro.core.factory import make_simulator
from repro.core.kernel import KernelSimulator
from repro.core.policy import make_policy
from repro.core.simulator import SimulationResult, TraceHook
from repro.obs.prof import SpanProfiler, observe_stage
from repro.obs.registry import MetricsRegistry
from repro.workload.generator import generate_workload


@dataclasses.dataclass(frozen=True)
class CellOutcome:
    """What one cell run yields — the picklable payload a worker ships
    back to the executor.

    ``wall_ms`` and ``deltas`` (the cell's private registry snapshot)
    are set only for observed cells, ``prof_state`` (the worker's
    :meth:`SpanProfiler.export_state` recording) only for profiled
    ones.  ``fallback`` is ``None`` for cells that ran clean; for a
    healed cell it is the ``engine_fallback`` record destined for sweep
    stats and the run manifest, minus the cell coordinates the parent
    adds.
    """

    result: SimulationResult
    wall_ms: float = 0.0
    deltas: Optional[dict] = None
    prof_state: Optional[dict] = None
    fallback: Optional[dict] = None


def simulate_cell(
    config: SimulationConfig,
    seed: int,
    policy_name: str,
    *,
    trace: Optional[TraceHook] = None,
    observe: bool = False,
    profile: bool = False,
    max_wall_s: Optional[float] = None,
    max_memory_mb: Optional[float] = None,
) -> CellOutcome:
    """Run one cell from scratch.

    Deterministic in its arguments: the workload is generated from
    ``(config, seed)`` and the simulator draws no further randomness,
    so the same cell yields the same result in any process.

    ``trace`` attaches an event hook or sink; the caller owns it and
    closes it.  ``max_wall_s`` / ``max_memory_mb`` bound the
    simulation's real run time and resident memory via the engine's
    guards.

    ``observe`` gives the cell a private metrics registry and returns
    its snapshot as ``deltas`` with the cell's ``wall_ms``.  Apart from
    wall time (the ``prof.stage_ms`` stage histograms and the cell's
    own wall clock) the deltas are deterministic in the cell, which is
    what makes parallel manifest counters equal serial ones.  Observed
    cells run with kernel introspection on (``kernel.*`` counters, see
    docs/OBSERVABILITY.md) and tally the engine that actually ran under
    ``sweep.engine{engine=...}``.  ``profile`` implies ``observe`` and
    additionally records a span profile (stage spans plus the engine's
    internal phases), returned as ``prof_state``.  Neither changes the
    engine ``config.engine`` selects nor the result.
    """
    registry = MetricsRegistry() if observe or profile else None
    prof = SpanProfiler() if profile else None
    started = time.perf_counter()
    workload = generate_workload(config, seed)
    policy = make_policy(policy_name, penalty_weight=config.penalty_weight)
    generated = time.perf_counter()
    simulator = make_simulator(
        config,
        workload,
        policy,
        trace=trace,
        max_wall_s=max_wall_s,
        max_memory_mb=max_memory_mb,
        metrics=registry,
        profile=prof,
        introspect=registry is not None,
    )
    if registry is None:
        return CellOutcome(simulator.run())
    observe_stage(registry, "workload_gen", (generated - started) * 1000.0)
    engine = "kernel" if isinstance(simulator, KernelSimulator) else "reference"
    registry.counter("sweep.engine", engine=engine).inc()
    result = simulator.run()
    finished = time.perf_counter()
    observe_stage(registry, "simulate", (finished - generated) * 1000.0)
    if prof is not None:
        cell_args = {"policy": policy_name, "seed": seed, "engine": engine}
        prof.add_span(
            "cell.workload_gen", "stage", started, generated, {"n": len(workload)}
        )
        prof.add_span("cell.simulate", "stage", generated, finished, cell_args)
    return CellOutcome(
        result,
        (finished - started) * 1000.0,
        registry.snapshot(),
        prof.export_state() if prof is not None else None,
    )
