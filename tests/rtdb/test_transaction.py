"""Transaction specs and runtime state machine."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtdb.transaction import Operation, Transaction, TransactionSpec, TxState

from tests.conftest import make_spec


class TestOperation:
    def test_valid(self):
        op = Operation(item=3, compute_time=4.0, io_time=25.0)
        assert op.needs_io
        assert Operation(item=3, compute_time=4.0).needs_io is False

    def test_nonpositive_compute_rejected(self):
        with pytest.raises(ValueError):
            Operation(item=0, compute_time=0.0)
        with pytest.raises(ValueError):
            Operation(item=0, compute_time=-1.0)

    def test_negative_io_rejected(self):
        with pytest.raises(ValueError):
            Operation(item=0, compute_time=1.0, io_time=-1.0)


class TestSpec:
    def test_resource_time_includes_io(self):
        spec = make_spec(1, [1, 2], compute=4.0, io_items=frozenset({2}), io_time=25.0)
        assert spec.resource_time == pytest.approx(4.0 + 4.0 + 25.0)
        assert spec.cpu_time == pytest.approx(8.0)

    def test_write_set(self):
        spec = make_spec(1, [5, 3, 5])
        assert spec.write_set == frozenset({3, 5})

    def test_cached_item_sets_leave_identity_alone(self):
        spec = make_spec(1, [5, 3])
        fresh = make_spec(1, [5, 3])
        assert spec.data_set is spec.data_set
        assert (spec.write_set, spec.read_set) == (frozenset({3, 5}), frozenset())
        assert spec == fresh and hash(spec) == hash(fresh)
        assert pickle.loads(pickle.dumps(spec)) == fresh

    def test_empty_operations_rejected(self):
        with pytest.raises(ValueError):
            TransactionSpec(
                tid=1, type_id=0, arrival_time=0.0, deadline=10.0, operations=()
            )

    def test_deadline_before_arrival_rejected(self):
        with pytest.raises(ValueError):
            make_spec(1, [1], arrival=100.0, deadline=50.0)

    def test_default_program_name(self):
        spec = make_spec(1, [1], type_id=7)
        assert spec.program_name == "type7"


class TestTransactionLifecycle:
    def test_initial_state(self):
        tx = Transaction(make_spec(1, [1, 2, 3]))
        assert tx.state is TxState.READY
        assert not tx.partially_executed
        assert not tx.is_done
        assert tx.restarts == 0
        assert tx.epoch == 0

    def test_partially_executed_after_access(self):
        tx = Transaction(make_spec(1, [1, 2]))
        tx.record_access(1)
        assert tx.partially_executed
        assert tx.accessed == {1}

    def test_remaining_service_full_at_start(self):
        tx = Transaction(make_spec(1, [1, 2, 3], compute=4.0))
        assert tx.remaining_service == pytest.approx(12.0)

    def test_remaining_service_mid_operation(self):
        tx = Transaction(make_spec(1, [1, 2, 3], compute=4.0))
        tx.remaining_compute = 1.5  # current op started, 1.5 ms left
        assert tx.remaining_service == pytest.approx(1.5 + 8.0)

    def test_remaining_service_includes_rollback_debt(self):
        tx = Transaction(make_spec(1, [1], compute=4.0))
        tx.pending_rollback_work = 2.0
        assert tx.remaining_service == pytest.approx(6.0)

    def test_slack(self):
        tx = Transaction(make_spec(1, [1, 2], compute=4.0, deadline=100.0))
        assert tx.slack(now=50.0) == pytest.approx(100.0 - 50.0 - 8.0)

    def test_restart_resets_progress(self):
        tx = Transaction(make_spec(1, [1, 2]))
        tx.record_access(1)
        tx.op_index = 1
        tx.remaining_compute = 2.0
        tx.service_received = 6.0
        tx.restart()
        assert tx.state is TxState.READY
        assert tx.op_index == 0
        assert tx.remaining_compute == 0.0
        assert tx.service_received == 0.0
        assert tx.accessed == set()
        assert tx.restarts == 1
        assert tx.epoch == 1
        assert not tx.partially_executed

    def test_restart_preserves_identity_and_deadline(self):
        spec = make_spec(1, [1], deadline=500.0)
        tx = Transaction(spec)
        tx.restart()
        assert tx.tid == 1
        assert tx.deadline == 500.0

    def test_commit(self):
        tx = Transaction(make_spec(1, [1]))
        tx.op_index = 1
        tx.commit(now=120.0)
        assert tx.committed
        assert tx.commit_time == 120.0

    def test_commit_with_outstanding_operations_rejected(self):
        tx = Transaction(make_spec(1, [1, 2]))
        with pytest.raises(RuntimeError):
            tx.commit(now=1.0)

    def test_double_commit_rejected(self):
        tx = Transaction(make_spec(1, [1]))
        tx.op_index = 1
        tx.commit(now=1.0)
        with pytest.raises(RuntimeError):
            tx.commit(now=2.0)

    def test_restart_after_commit_rejected(self):
        tx = Transaction(make_spec(1, [1]))
        tx.op_index = 1
        tx.commit(now=1.0)
        with pytest.raises(RuntimeError):
            tx.restart()

    def test_lateness_and_tardiness(self):
        tx = Transaction(make_spec(1, [1], deadline=100.0))
        tx.op_index = 1
        tx.commit(now=130.0)
        assert tx.lateness() == pytest.approx(30.0)
        assert tx.tardiness() == pytest.approx(30.0)
        assert tx.missed_deadline

    def test_early_commit_has_zero_tardiness(self):
        tx = Transaction(make_spec(1, [1], deadline=100.0))
        tx.op_index = 1
        tx.commit(now=60.0)
        assert tx.lateness() == pytest.approx(-40.0)
        assert tx.tardiness() == 0.0
        assert not tx.missed_deadline

    def test_lateness_before_commit_rejected(self):
        tx = Transaction(make_spec(1, [1]))
        with pytest.raises(RuntimeError):
            tx.lateness()


class TestProperties:
    @given(
        n_ops=st.integers(1, 10),
        n_restarts=st.integers(0, 5),
        compute=st.floats(0.5, 50.0),
    )
    @settings(max_examples=60)
    def test_restart_always_returns_to_pristine_progress(
        self, n_ops, n_restarts, compute
    ):
        tx = Transaction(make_spec(1, list(range(n_ops)), compute=compute))
        pristine_remaining = tx.remaining_service
        for index in range(n_restarts):
            tx.record_access(index % n_ops)
            tx.service_received = 3.0
            tx.restart()
            assert tx.remaining_service == pytest.approx(pristine_remaining)
            assert tx.epoch == index + 1
