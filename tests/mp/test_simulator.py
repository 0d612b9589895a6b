"""Multiprocessor simulator: exact schedules and structural invariants."""

import pytest

from repro.config import SimulationConfig
from repro.core.kernel import UnsupportedKernelFeature
from repro.core.oracle import SetOracle
from repro.core.policy import CCAPolicy, EDFPolicy
from repro.mp.simulator import MultiprocessorSimulator
from repro.workload.generator import generate_workload

from tests.conftest import make_spec


def config(**overrides) -> SimulationConfig:
    defaults = dict(
        n_transaction_types=5,
        updates_mean=3.0,
        updates_std=1.0,
        db_size=50,
        abort_cost=4.0,
        n_transactions=5,
        arrival_rate=1.0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def run(workload, policy, n_cpus=2, trace=None, **overrides):
    return MultiprocessorSimulator(
        config(**overrides), workload, policy, n_cpus=n_cpus, trace=trace
    ).run()


class TestParallelExecution:
    def test_two_disjoint_transactions_run_concurrently(self):
        a = make_spec(1, [1, 2], arrival=0.0, deadline=100.0, compute=10.0)
        b = make_spec(2, [8, 9], arrival=0.0, deadline=100.0, compute=10.0)
        result = run([a, b], EDFPolicy(), n_cpus=2)
        commits = {r.tid: r.commit_time for r in result.records}
        # Both finish at 20 — true parallelism, not serialization.
        assert commits[1] == pytest.approx(20.0)
        assert commits[2] == pytest.approx(20.0)
        assert result.makespan == pytest.approx(20.0)

    def test_single_cpu_matches_serial_behaviour(self):
        a = make_spec(1, [1], arrival=0.0, deadline=50.0, compute=10.0)
        b = make_spec(2, [9], arrival=0.0, deadline=100.0, compute=10.0)
        result = run([a, b], EDFPolicy(), n_cpus=1)
        commits = {r.tid: r.commit_time for r in result.records}
        assert commits[1] == pytest.approx(10.0)
        assert commits[2] == pytest.approx(20.0)

    def test_three_transactions_two_cpus(self):
        specs = [
            make_spec(1, [1], arrival=0.0, deadline=50.0, compute=10.0),
            make_spec(2, [2], arrival=0.0, deadline=60.0, compute=10.0),
            make_spec(3, [3], arrival=0.0, deadline=70.0, compute=10.0),
        ]
        result = run(specs, EDFPolicy(), n_cpus=2)
        commits = {r.tid: r.commit_time for r in result.records}
        assert commits[1] == pytest.approx(10.0)
        assert commits[2] == pytest.approx(10.0)
        assert commits[3] == pytest.approx(20.0)

    def test_policy_name_carries_cpu_count(self):
        a = make_spec(1, [1], arrival=0.0, deadline=50.0, compute=10.0)
        result = run([a], EDFPolicy(), n_cpus=4)
        assert result.policy_name == "EDF-HPx4"


class TestConflictsAcrossCpus:
    def test_edf_hp_co_runners_wound_on_collision(self):
        """Two conflicting transactions run in parallel under EDF-HP-MP;
        the higher-priority one wounds the other when their accesses
        collide."""
        urgent = make_spec(1, [5, 1, 2], arrival=0.0, deadline=100.0, compute=10.0)
        victim = make_spec(2, [1, 8, 9], arrival=0.0, deadline=500.0, compute=10.0)
        result = run([urgent, victim], EDFPolicy(), n_cpus=2)
        restarts = {r.tid: r.restarts for r in result.records}
        # The victim locked item 1 at t=0; the urgent one reaches item 1
        # at t=10 and wounds it.
        assert restarts[2] >= 1
        assert restarts[1] == 0

    def test_cca_mp_keeps_conflicting_transactions_apart(self):
        """CCA-MP refuses to co-schedule conflicting transactions, so no
        wound ever happens."""
        urgent = make_spec(1, [5, 1, 2], arrival=0.0, deadline=100.0, compute=10.0)
        conflicting = make_spec(2, [1, 8, 9], arrival=0.0, deadline=500.0, compute=10.0)
        compatible = make_spec(3, [6, 7], arrival=0.0, deadline=800.0, compute=10.0)
        result = run([urgent, conflicting, compatible], CCAPolicy(1.0), n_cpus=2)
        assert result.total_restarts == 0
        commits = {r.tid: r.commit_time for r in result.records}
        # urgent (primary) and the compatible one run in parallel from
        # t=0; the conflicting one waits for the primary's commit.
        assert commits[1] == pytest.approx(30.0)
        assert commits[3] == pytest.approx(20.0)
        assert commits[2] == pytest.approx(60.0)

    def test_cca_mp_idles_spare_cpu_rather_than_noncontribute(self):
        urgent = make_spec(1, [1, 2], arrival=0.0, deadline=100.0, compute=10.0)
        conflicting = make_spec(2, [2, 9], arrival=0.0, deadline=500.0, compute=10.0)
        result = run([urgent, conflicting], CCAPolicy(1.0), n_cpus=2)
        assert result.total_restarts == 0
        commits = {r.tid: r.commit_time for r in result.records}
        assert commits[1] == pytest.approx(20.0)
        assert commits[2] == pytest.approx(40.0)
        # Utilization reflects the idle second CPU: 40 ms of work over
        # 2 CPUs x 40 ms.
        assert result.cpu_utilization == pytest.approx(0.5)


class TestValidation:
    def test_disk_config_rejected(self):
        spec = make_spec(1, [1])
        with pytest.raises(ValueError, match="main-memory"):
            MultiprocessorSimulator(
                config(disk_resident=True), [spec], EDFPolicy(), n_cpus=2
            )

    def test_zero_cpus_rejected(self):
        with pytest.raises(ValueError):
            MultiprocessorSimulator(config(), [make_spec(1, [1])], EDFPolicy(), n_cpus=0)

    def test_firm_deadlines_rejected(self):
        """Only soft deadlines are modelled; a firm config must not run
        silently as a soft one."""
        with pytest.raises(ValueError, match="firm deadlines"):
            MultiprocessorSimulator(
                config(firm_deadlines=True), [make_spec(1, [1])], EDFPolicy(), n_cpus=2
            )

    def test_sanitize_flag_ignored(self):
        """RTSan validates the reference single-CPU engine only."""
        result = MultiprocessorSimulator(
            config(sanitize=True), [make_spec(1, [1])], EDFPolicy(), n_cpus=2
        ).run()
        assert result.n_committed == 1

    def test_custom_oracle_unsupported(self):
        class CustomOracle(SetOracle):
            pass

        with pytest.raises(UnsupportedKernelFeature):
            MultiprocessorSimulator(
                config(), [make_spec(1, [1])], EDFPolicy(), n_cpus=2, oracle=CustomOracle()
            )


class TestGeneratedWorkloads:
    @pytest.mark.parametrize("n_cpus", [1, 2, 4])
    @pytest.mark.parametrize(
        "policy_factory", [lambda: EDFPolicy(), lambda: CCAPolicy(1.0)]
    )
    def test_full_workload_drains(self, n_cpus, policy_factory):
        cfg = config(
            n_transaction_types=10,
            updates_mean=6.0,
            db_size=40,
            n_transactions=80,
            arrival_rate=15.0,
        )
        workload = generate_workload(cfg, seed=3)
        result = MultiprocessorSimulator(
            cfg, workload, policy_factory(), n_cpus=n_cpus
        ).run()
        assert result.n_committed == cfg.n_transactions
        assert 0.0 <= result.cpu_utilization <= 1.0
        assert sum(r.restarts for r in result.records) == result.total_restarts

    def test_more_cpus_cannot_hurt_makespan_much(self):
        """With parallel capacity the schedule drains no later (modulo
        wound noise, bounded here)."""
        cfg = config(
            n_transaction_types=10,
            updates_mean=6.0,
            db_size=60,
            n_transactions=60,
            arrival_rate=25.0,
        )
        workload = generate_workload(cfg, seed=4)
        serial = MultiprocessorSimulator(cfg, workload, CCAPolicy(1.0), n_cpus=1).run()
        parallel = MultiprocessorSimulator(cfg, workload, CCAPolicy(1.0), n_cpus=4).run()
        assert parallel.makespan <= serial.makespan * 1.05
        assert parallel.miss_percent <= serial.miss_percent + 5.0

    def test_cca_mp_never_lock_waits(self):
        """Theorem 1 generalizes: compatible co-scheduling means no CCA
        transaction ever waits for a lock."""
        cfg = config(
            n_transaction_types=8,
            updates_mean=5.0,
            db_size=25,
            n_transactions=60,
            arrival_rate=20.0,
        )
        events = []
        workload = generate_workload(cfg, seed=5)
        MultiprocessorSimulator(
            cfg,
            workload,
            CCAPolicy(1.0),
            n_cpus=3,
            trace=lambda name, **kw: events.append(name),
        ).run()
        assert "lock_wait" not in events


class TestUnsupportedPolicies:
    def test_wait_promote_rejected(self):
        from repro.core.policy import EDFWPPolicy

        with pytest.raises(ValueError, match="wait-promote"):
            MultiprocessorSimulator(
                config(), [make_spec(1, [1])], EDFWPPolicy(), n_cpus=2
            )
