"""Assemble complete workloads.

A workload is the full, immutable input of one simulated run: every
transaction's type, arrival time, operations (with their disk legs
pre-drawn) and deadline.  Generating it *before* simulation — rather than
drawing variates during the run — means the exact same workload can be
replayed under every policy, giving the paired EDF-vs-CCA comparisons the
paper's methodology implies (same seeds, same transactions).

Every transaction is an instance of one of the run's pre-analysed types,
and a type fixes its instances' items, write flags and compute time.  So
each type's :class:`~repro.rtdb.transaction.Operation` objects are built
once per run and shared.  A main-memory workload draws no disk coins, so
every instance of a type shares one ``operations`` tuple (and its
resource time).  On disk each (type, operation) pair is pre-built with
and without its disk leg, and each instance picks one of the two per
operation by its own coin flip, drawn in operation order.  The
workload is the same, value for value, as building every operation
afresh; consumers that need per-instance identity must not rely on
``operations`` tuples being distinct objects.

Stream separation (see :class:`repro.sim.random.StreamFactory`) keeps the
type table, arrival process, type choices, slack draws and disk-access
coin flips independent, so e.g. changing the arrival rate does not
perturb the type table of the same seed.
"""

from __future__ import annotations

from repro.config import SimulationConfig
from repro.rtdb.transaction import Operation, TransactionSpec
from repro.sim.random import StreamFactory
from repro.workload.deadlines import assign_deadline
from repro.workload.arrivals import bursty_arrivals, poisson_arrivals
from repro.workload.types import TransactionType, make_type_table


class WorkloadGenerator:
    """Generates the paper's workload for one (config, seed) pair."""

    def __init__(self, config: SimulationConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        self._factory = StreamFactory(seed)

    def make_types(self) -> list[TransactionType]:
        """The per-run transaction type table."""
        return make_type_table(self.config, self._factory.stream("types"))

    def generate(self) -> list[TransactionSpec]:
        """The full workload: ``config.n_transactions`` transaction specs,
        ordered by arrival time."""
        config = self.config
        types = self.make_types()
        arrival_stream = self._factory.stream("arrivals")
        choice_stream = self._factory.stream("type-choice")
        slack_stream = self._factory.stream("slack")
        io_stream = self._factory.stream("disk-io")
        criticalness_stream = self._factory.stream("criticalness")

        if config.arrival_model == "bursty":
            arrivals = bursty_arrivals(
                arrival_stream,
                config.arrival_rate,
                config.n_transactions,
                burst_factor=config.burst_factor,
                burst_fraction=config.burst_fraction,
                mean_burst_ms=config.mean_burst_ms,
            )
        else:
            arrivals = poisson_arrivals(
                arrival_stream, config.arrival_rate, config.n_transactions
            )
        kinds = [_TypeOperations(tx_type, config) for tx_type in types]
        disk = config.disk_resident
        prob = config.disk_access_prob
        specs: list[TransactionSpec] = []
        for tid, arrival_time in enumerate(arrivals):
            # Same draw as choosing from ``types``: one index per pick.
            kind = choice_stream.choice(kinds)
            tx_type = kind.tx_type
            if disk:
                # One coin per operation, in operation order; heads (True)
                # picks the with-disk-leg half of the pair.
                operations = tuple(
                    [pair[io_stream.coin(prob)] for pair in kind.pairs]
                )
                resource_time = sum(
                    op.compute_time + op.io_time for op in operations
                )
            else:
                operations = kind.memory_ops
                resource_time = kind.memory_resource_time
            deadline = assign_deadline(
                arrival_time,
                resource_time,
                slack_stream,
                config.min_slack,
                config.max_slack,
            )
            criticalness = (
                criticalness_stream.randint(0, config.criticalness_levels - 1)
                if config.criticalness_levels > 1
                else 0
            )
            specs.append(
                TransactionSpec(
                    tid=tid,
                    type_id=tx_type.type_id,
                    arrival_time=arrival_time,
                    deadline=deadline,
                    operations=operations,
                    program_name=tx_type.program_name,
                    criticalness=criticalness,
                )
            )
        return specs


class _TypeOperations:
    """One type's Operations, built once and shared by its instances.

    ``memory_ops`` is the operations tuple with no disk legs; main-memory
    instances share it, and its ``memory_resource_time``, outright.  On
    disk, ``pairs[k]`` is operation ``k`` without and with its disk leg
    (empty in main memory).
    """

    __slots__ = ("tx_type", "memory_ops", "memory_resource_time", "pairs")

    def __init__(self, tx_type: TransactionType, config: SimulationConfig) -> None:
        self.tx_type = tx_type
        self.memory_ops = tuple(
            Operation(
                item=item,
                compute_time=tx_type.compute_per_update,
                io_time=0.0,
                is_write=is_write,
            )
            for item, is_write in zip(tx_type.items, tx_type.write_flags)
        )
        # Same additions in the same order as TransactionSpec.resource_time.
        self.memory_resource_time = sum(
            op.compute_time + op.io_time for op in self.memory_ops
        )
        self.pairs: tuple[tuple[Operation, Operation], ...] = ()
        if config.disk_resident:
            self.pairs = tuple(
                (
                    op,
                    Operation(
                        item=op.item,
                        compute_time=op.compute_time,
                        io_time=config.disk_access_time,
                        is_write=op.is_write,
                    ),
                )
                for op in self.memory_ops
            )


def generate_workload(config: SimulationConfig, seed: int) -> list[TransactionSpec]:
    """Convenience wrapper: one call, one workload."""
    return WorkloadGenerator(config, seed).generate()
