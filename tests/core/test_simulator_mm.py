"""Main-memory simulator: hand-crafted schedules with exact timings.

These tests pin down the scheduling semantics the figures rely on:
preemption, wound-wait with abort cost, restart-from-scratch, EDF-Wait's
deferral, and the cost-conscious decision that distinguishes CCA from
EDF-HP (the paper's motivating example in miniature).
"""

import pytest

from repro.config import SimulationConfig
from repro.core.kernel import KernelSimulator
from repro.core.policy import CCAPolicy, EDFPolicy, EDFWaitPolicy
from repro.core.simulator import RTDBSimulator

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


def run(workload, policy, **config_overrides):
    return RTDBSimulator(config(**config_overrides), workload, policy).run()


class TestSingleTransaction:
    def test_runs_in_isolation(self):
        spec = make_spec(1, [1, 2, 3], arrival=0.0, deadline=100.0, compute=10.0)
        result = run([spec], EDFPolicy())
        assert result.n_committed == 1
        record = result.records[0]
        assert record.commit_time == pytest.approx(30.0)
        assert not record.missed
        assert result.total_restarts == 0
        assert result.cpu_utilization == pytest.approx(1.0)

    def test_deadline_miss_detected(self):
        spec = make_spec(1, [1, 2], arrival=0.0, deadline=15.0, compute=10.0)
        result = run([spec], EDFPolicy())
        assert result.n_missed == 1
        assert result.miss_percent == pytest.approx(100.0)
        assert result.records[0].tardiness == pytest.approx(5.0)

    def test_arrival_delay_respected(self):
        spec = make_spec(1, [1], arrival=42.0, deadline=100.0, compute=10.0)
        result = run([spec], EDFPolicy())
        assert result.records[0].commit_time == pytest.approx(52.0)


class TestNonConflictingPreemption:
    def test_earlier_deadline_preempts(self):
        long_tx = make_spec(1, [1, 2], arrival=0.0, deadline=500.0, compute=20.0)
        urgent = make_spec(2, [8, 9], arrival=5.0, deadline=60.0, compute=10.0)
        result = run([long_tx, urgent], EDFPolicy())
        commits = {r.tid: r.commit_time for r in result.records}
        # Urgent runs 5..25; the long one resumes (not restarts!) and
        # finishes its remaining 35 ms by t=60.
        assert commits[2] == pytest.approx(25.0)
        assert commits[1] == pytest.approx(60.0)
        assert result.total_restarts == 0

    def test_later_deadline_does_not_preempt(self):
        running = make_spec(1, [1], arrival=0.0, deadline=50.0, compute=10.0)
        relaxed = make_spec(2, [9], arrival=2.0, deadline=500.0, compute=10.0)
        result = run([running, relaxed], EDFPolicy())
        commits = {r.tid: r.commit_time for r in result.records}
        assert commits[1] == pytest.approx(10.0)
        assert commits[2] == pytest.approx(20.0)


class TestWoundWait:
    def test_conflicting_urgent_arrival_wounds_holder(self):
        """EDF-HP: the higher-priority requester aborts the lock holder
        and pays the rollback cost on the CPU."""
        holder = make_spec(1, [1, 2, 3], arrival=0.0, deadline=1000.0, compute=10.0)
        urgent = make_spec(2, [1, 9], arrival=5.0, deadline=50.0, compute=10.0)
        result = run([holder, urgent], EDFPolicy())
        commits = {r.tid: r.commit_time for r in result.records}
        restarts = {r.tid: r.restarts for r in result.records}
        # Urgent: preempts at 5, wounds (4 ms rollback), computes 2x10.
        assert commits[2] == pytest.approx(5 + 4 + 20)
        # Holder restarts from scratch: 3x10 after the urgent one.
        assert commits[1] == pytest.approx(29 + 30)
        assert restarts == {1: 1, 2: 0}
        assert result.total_restarts == 1

    def test_abort_cost_zero(self):
        holder = make_spec(1, [1, 2], arrival=0.0, deadline=1000.0, compute=10.0)
        urgent = make_spec(2, [1], arrival=5.0, deadline=50.0, compute=10.0)
        result = run([holder, urgent], EDFPolicy(), abort_cost=0.0)
        commits = {r.tid: r.commit_time for r in result.records}
        assert commits[2] == pytest.approx(15.0)

    def test_wounded_transaction_releases_all_locks(self):
        """After a wound, the victim's other locks are free for others."""
        holder = make_spec(1, [1, 2], arrival=0.0, deadline=1000.0, compute=10.0)
        urgent = make_spec(2, [1], arrival=12.0, deadline=60.0, compute=10.0)
        # At t=12 the holder has locks on 1 and 2 (second op underway).
        other = make_spec(3, [2], arrival=13.0, deadline=80.0, compute=10.0)
        result = run([holder, urgent, other], EDFPolicy())
        assert result.n_committed == 3
        commits = {r.tid: r.commit_time for r in result.records}
        # urgent: 12 + 4 (rollback) + 10 = 26; other: 26..36 takes item 2
        # freely because the wounded holder released it.
        assert commits[2] == pytest.approx(26.0)
        assert commits[3] == pytest.approx(36.0)


class TestEDFWait:
    def test_conflicting_urgent_arrival_waits_instead_of_wounding(self):
        holder = make_spec(1, [1, 2, 3], arrival=0.0, deadline=1000.0, compute=10.0)
        urgent = make_spec(2, [1, 9], arrival=5.0, deadline=80.0, compute=10.0)
        result = run([holder, urgent], EDFWaitPolicy())
        commits = {r.tid: r.commit_time for r in result.records}
        # Holder finishes undisturbed at 30; urgent runs 30..50.
        assert commits[1] == pytest.approx(30.0)
        assert commits[2] == pytest.approx(50.0)
        assert result.total_restarts == 0

    def test_non_conflicting_arrival_still_preempts(self):
        holder = make_spec(1, [1, 2, 3], arrival=0.0, deadline=1000.0, compute=10.0)
        urgent = make_spec(2, [8, 9], arrival=5.0, deadline=80.0, compute=10.0)
        result = run([holder, urgent], EDFWaitPolicy())
        commits = {r.tid: r.commit_time for r in result.records}
        # Urgent runs 5..25; the holder (5 of 30 ms served) resumes and
        # finishes its remaining 25 ms at t=50.
        assert commits[2] == pytest.approx(25.0)
        assert commits[1] == pytest.approx(50.0)


class TestCostConsciousDecision:
    """The paper's motivating scenario: EDF-HP throws away a nearly
    finished long transaction; CCA lets it finish first."""

    def scenario(self):
        long_tx = make_spec(
            1, [1, 2, 3, 4], arrival=0.0, deadline=2500.0, compute=500.0
        )
        urgent = make_spec(2, [1, 9], arrival=1800.0, deadline=2200.0, compute=10.0)
        return [long_tx, urgent]

    def test_edf_hp_wounds_and_misses(self):
        result = run(self.scenario(), EDFPolicy())
        commits = {r.tid: r.commit_time for r in result.records}
        assert result.total_restarts == 1
        assert commits[2] == pytest.approx(1800 + 4 + 20)
        assert commits[1] == pytest.approx(1824 + 2000)
        assert result.n_missed == 1  # the long transaction misses 2500

    def test_cca_finishes_the_long_transaction_first(self):
        result = run(self.scenario(), CCAPolicy(1.0))
        commits = {r.tid: r.commit_time for r in result.records}
        assert result.total_restarts == 0
        assert commits[1] == pytest.approx(2000.0)
        assert commits[2] == pytest.approx(2020.0)
        assert result.n_missed == 0

    def test_cca_zero_weight_behaves_like_edf_hp(self):
        result = run(self.scenario(), CCAPolicy(0.0))
        assert result.total_restarts == 1
        assert result.n_missed == 1


class TestDeterminism:
    def test_same_workload_same_policy_identical_results(self, mm_config, mm_workload):
        first = RTDBSimulator(mm_config, mm_workload, CCAPolicy(1.0)).run()
        second = RTDBSimulator(mm_config, mm_workload, CCAPolicy(1.0)).run()
        assert first.records == second.records
        assert first.total_restarts == second.total_restarts

    def test_simulator_instance_runs_once(self, mm_config, mm_workload):
        simulator = RTDBSimulator(mm_config, mm_workload, EDFPolicy())
        simulator.run()
        with pytest.raises(RuntimeError):
            simulator.run()


class TestAggregates:
    def test_all_transactions_commit(self, mm_config, mm_workload):
        result = RTDBSimulator(mm_config, mm_workload, EDFPolicy()).run()
        assert result.n_committed == mm_config.n_transactions
        assert {r.tid for r in result.records} == {
            s.tid for s in mm_workload
        }

    def test_cpu_busy_time_bounded_by_makespan(self, mm_config, mm_workload):
        result = RTDBSimulator(mm_config, mm_workload, CCAPolicy(1.0)).run()
        assert 0.0 < result.cpu_utilization <= 1.0

    def test_no_restarts_means_busy_equals_total_work(self, mm_config, mm_workload):
        result = RTDBSimulator(mm_config, mm_workload, EDFWaitPolicy()).run()
        if result.total_restarts == 0:
            total_work = sum(spec.cpu_time for spec in mm_workload)
            measured = result.cpu_utilization * result.makespan
            assert measured == pytest.approx(total_work, rel=1e-6)

    def test_empty_workload_rejected(self, mm_config):
        with pytest.raises(ValueError):
            RTDBSimulator(mm_config, [], EDFPolicy())


class TestWorkloadValidation:
    def test_item_outside_database_rejected(self, mm_config):
        bad = make_spec(1, [mm_config.db_size + 5])
        for engine in (RTDBSimulator, KernelSimulator):
            with pytest.raises(KeyError, match="outside the database"):
                engine(mm_config, [bad], EDFPolicy())

    def test_kernel_checks_each_distinct_tuple_of_a_type(self, mm_config):
        # The kernel encodes a type's operations once per distinct tuple;
        # a second spec of the same type with its own, out-of-range
        # tuple must still be checked.
        good = make_spec(1, [1, 2], type_id=3)
        bad = make_spec(2, [mm_config.db_size + 5], type_id=3)
        with pytest.raises(KeyError, match="transaction 2 .* outside the database"):
            KernelSimulator(mm_config, [good, bad], EDFPolicy())
