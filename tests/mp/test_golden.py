"""Golden parity battery for the multiprocessor engine.

Each case runs one seeded workload through
:class:`~repro.mp.simulator.MultiprocessorSimulator` and pins two
sha256 digests against ``tests/mp/golden/digests.json``:

* the canonical JSON of ``result_to_dict`` — every float of the
  :class:`SimulationResult`, every per-transaction record;
* the trace stream projected to ``(event, time, tx)`` for the event
  kinds the multiprocessor schedule has always emitted (arrivals,
  dispatches, preemptions, lock waits and wakes, decisions, commits,
  aborts).  Lock acquire/release records are left out of the projection:
  they are bookkeeping for the certifier, not scheduling decisions.

The result digest is taken from an untraced run and checked again on
the traced run, so tracing cannot change a schedule.  Every run gets an
event budget of :data:`EVENTS_PER_TX` per transaction, six times what
any case that completes needs: some LSF-HP cases never finish (a
preemption ping-pong), and for those the digest pins the point at which
the budget trips and the trace up to it.

The cases cover the CPU counts 1–4 for every supported policy at high
contention, heavier penalty weights (where the in-flight service of
other CPUs changes CCA's order), deadline ties (where the on-a-CPU
flag breaks them), shared locks, tree programs through the
:class:`~repro.core.oracle.TreeOracle`, service-proportional rollback
costs and the ``ext-multiprocessor`` study's own cells.  The digests
were computed with the original object-graph multiprocessor engine, so
a failure here means a multiprocessor schedule changed.  To regenerate
after an intentional behaviour change::

    PYTHONPATH=src python tests/mp/test_golden.py --regen

and commit the new digests with the change that motivated them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

from repro.config import SimulationConfig
from repro.core.oracle import TreeOracle
from repro.core.policy import (
    CCAPolicy,
    EDFPolicy,
    EDFWaitPolicy,
    FCFSPolicy,
    LSFPolicy,
    PriorityPolicy,
)
from repro.experiments.cache import result_to_dict
from repro.experiments.config import MAIN_MEMORY_BASE, ExperimentScale
from repro.mp.simulator import MultiprocessorSimulator
from repro.rtdb.recovery import ProportionalRecovery
from repro.sim.engine import EventBudgetExceeded
from repro.tracing import EventLog
from repro.workload.generator import generate_workload
from repro.workload.programs import TreeWorkloadGenerator

DIGESTS = Path(__file__).parent / "golden" / "digests.json"

#: Event kinds the multiprocessor schedule is pinned on.
PINNED_KINDS = frozenset(
    {"arrival", "dispatch", "preempt", "lock_wait", "lock_wake", "decision", "commit", "abort"}
)

POLICIES: dict[str, Callable[[], PriorityPolicy]] = {
    "EDF-HP": EDFPolicy,
    "CCA": lambda: CCAPolicy(1.0),
    "EDF-Wait": EDFWaitPolicy,
    "LSF-HP": LSFPolicy,
    "FCFS": FCFSPolicy,
}

#: CCA with heavier penalty weights, outside the per-policy grid.
WEIGHTED: dict[str, Callable[[], PriorityPolicy]] = {
    "CCA-w5": lambda: CCAPolicy(5.0),
    "CCA-w20": lambda: CCAPolicy(20.0),
}

#: High-contention configurations, as in ``tests/mp/test_simulator.py``.
HOT = SimulationConfig(
    n_transaction_types=8,
    updates_mean=5.0,
    updates_std=1.0,
    db_size=25,
    abort_cost=4.0,
    n_transactions=60,
    arrival_rate=20.0,
)
WARM = HOT.replace(n_transaction_types=10, updates_mean=6.0, db_size=60, arrival_rate=25.0)

#: Event budget per transaction; completing cases need at most ~33.
EVENTS_PER_TX = 50

#: The ``ext-multiprocessor`` study's cells, at 100 transactions.
EXT_SCALE = ExperimentScale("golden", 1, 1, 0.1)


class Case(NamedTuple):
    config: SimulationConfig
    seed: int
    policy: str
    n_cpus: int
    tree: bool = False
    proportional: Optional[tuple[float, float]] = None
    #: Round deadlines up (arrivals down) to this grid, so many tie.
    deadline_grid: Optional[float] = None
    arrival_grid: Optional[float] = None


def cases() -> dict[str, Case]:
    found: dict[str, Case] = {}
    for label, config in (("hot", HOT), ("warm", WARM)):
        for n_cpus in (1, 2, 3, 4):
            for policy in POLICIES:
                for seed in (1, 2, 3):
                    found[f"{label}/{policy}/k{n_cpus}/s{seed}"] = Case(
                        config, seed, policy, n_cpus
                    )
    for label, config, policy in (("hot", HOT, "CCA-w5"), ("warm", WARM, "CCA-w20")):
        for n_cpus in (2, 3, 4):
            for seed in (1, 2):
                found[f"{label}/{policy}/k{n_cpus}/s{seed}"] = Case(
                    config, seed, policy, n_cpus
                )
    for n_cpus in (2, 4):
        for policy in ("EDF-HP", "CCA", "EDF-Wait"):
            for seed in (1, 2):
                found[f"ties/{policy}/k{n_cpus}/s{seed}"] = Case(
                    HOT, seed, policy, n_cpus, deadline_grid=100.0
                )
    for n_cpus in (2, 3, 4):
        for seed in (1, 2):
            found[f"ties/FCFS/k{n_cpus}/s{seed}"] = Case(
                HOT, seed, "FCFS", n_cpus, arrival_grid=300.0
            )
    shared = HOT.replace(read_fraction=0.5)
    for n_cpus in (2, 4):
        for policy in ("EDF-HP", "CCA", "LSF-HP"):
            for seed in (1, 2):
                found[f"shared/{policy}/k{n_cpus}/s{seed}"] = Case(
                    shared, seed, policy, n_cpus
                )
    tree = HOT.replace(n_transaction_types=4, n_transactions=40, db_size=40)
    for n_cpus in (2, 3):
        for policy in ("EDF-HP", "CCA", "EDF-Wait", "LSF-HP"):
            for seed in (1, 2):
                found[f"tree/{policy}/k{n_cpus}/s{seed}"] = Case(
                    tree, seed, policy, n_cpus, tree=True
                )
    for n_cpus in (2, 4):
        for policy in ("EDF-HP", "CCA", "LSF-HP"):
            for seed in (1, 2):
                found[f"proportional/{policy}/k{n_cpus}/s{seed}"] = Case(
                    HOT, seed, policy, n_cpus, proportional=(1.0, 0.5)
                )
    for n_cpus in (1, 2, 4):
        config = EXT_SCALE.scale_config(
            MAIN_MEMORY_BASE.replace(arrival_rate=8.0 * n_cpus, db_size=1000)
        )
        for policy in ("EDF-HP", "CCA"):
            found[f"ext/{policy}/k{n_cpus}/s1"] = Case(config, 1, policy, n_cpus)
    return found


CASES = cases()


def _sha(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(case: Case, trace: Optional[EventLog] = None) -> dict:
    """The case's ``result_to_dict``, or where its event budget tripped."""
    oracle = None
    if case.tree:
        table, workload = TreeWorkloadGenerator(case.config, case.seed).generate()
        oracle = TreeOracle(table)
    else:
        workload = generate_workload(case.config, case.seed)
    if case.deadline_grid is not None:
        grid = case.deadline_grid
        workload = [
            dataclasses.replace(spec, deadline=math.ceil(spec.deadline / grid) * grid)
            for spec in workload
        ]
    if case.arrival_grid is not None:
        grid = case.arrival_grid
        workload = [
            dataclasses.replace(
                spec, arrival_time=math.floor(spec.arrival_time / grid) * grid
            )
            for spec in workload
        ]
    recovery = None
    if case.proportional is not None:
        floor, factor = case.proportional
        recovery = ProportionalRecovery(floor=floor, factor=factor)
    simulator = MultiprocessorSimulator(
        case.config,
        workload,
        {**POLICIES, **WEIGHTED}[case.policy](),
        n_cpus=case.n_cpus,
        oracle=oracle,
        recovery=recovery,
        trace=trace,
        max_events=EVENTS_PER_TX * len(workload),
    )
    try:
        return result_to_dict(simulator.run())
    except EventBudgetExceeded as exc:
        progress = exc.progress
        return {"budget_exceeded": [progress["events"], progress["sim_time"]]}


def digests(case: Case) -> list[str]:
    """``[result digest, projected-trace digest]`` of one case."""
    untraced = _sha(run_case(case))
    log = EventLog()
    traced = _sha(run_case(case, trace=log))
    if traced != untraced:
        raise AssertionError("tracing changed the result")
    projected = [
        [event["event"], event["time"], event.get("tx")]
        for event in log
        if event["event"] in PINNED_KINDS
    ]
    return [untraced, _sha(projected)]


def _golden() -> dict[str, list[str]]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_schedule_matches_golden(case_id):
    result_sha, trace_sha = digests(CASES[case_id])
    want_result, want_trace = _golden()[case_id]
    assert result_sha == want_result, "result differs from the golden run"
    assert trace_sha == want_trace, "trace differs from the golden run"


def regenerate() -> None:
    table = {case_id: digests(case) for case_id, case in sorted(CASES.items())}
    DIGESTS.parent.mkdir(parents=True, exist_ok=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} cases to {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: PYTHONPATH=src python tests/mp/test_golden.py --regen")
    regenerate()
