"""The offline certifier checks multiprocessor schedules.

The multiprocessor engine traces lock acquisitions and releases like the
single-CPU kernel, so :func:`repro.certify.certifier.certify_events` can
reconstruct and certify its histories: serializability, strict 2PL,
High Priority conflict resolution, the wound order where priorities are
recomputable offline, and oracle soundness.  Every rule the certifier
checks must pass on every case.
"""

from __future__ import annotations

import pytest

from repro.certify.certifier import certify_events
from repro.core.policy import CCAPolicy, EDFPolicy
from repro.mp.simulator import MultiprocessorSimulator
from repro.tracing import EventLog
from repro.workload.generator import generate_workload

from tests.mp.test_simulator import config

#: The generated-workload configurations of ``test_simulator.py``.
CONFIGS = {
    "db40": config(
        n_transaction_types=10,
        updates_mean=6.0,
        db_size=40,
        n_transactions=80,
        arrival_rate=15.0,
    ),
    "db60": config(
        n_transaction_types=10,
        updates_mean=6.0,
        db_size=60,
        n_transactions=60,
        arrival_rate=25.0,
    ),
    "db25": config(
        n_transaction_types=8,
        updates_mean=5.0,
        db_size=25,
        n_transactions=60,
        arrival_rate=20.0,
    ),
}

POLICIES = {"EDF-HP": EDFPolicy, "CCA": lambda: CCAPolicy(1.0)}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n_cpus", [2, 4])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_multiprocessor_schedule_certifies(label, policy, n_cpus, seed):
    cfg = CONFIGS[label]
    workload = generate_workload(cfg, seed)
    log = EventLog()
    MultiprocessorSimulator(
        cfg, workload, POLICIES[policy](), n_cpus=n_cpus, trace=log
    ).run()
    verdict = certify_events(log, workload, policy, penalty_weight=1.0)
    assert verdict.certified, verdict.violations
    assert verdict.n_committed == len(workload)
    # Only the wound-order rule may be skipped, and only for continuous
    # priorities (CCA), exactly as on one CPU.
    assert set(verdict.skipped) == ({"CERT004"} if policy == "CCA" else set())
