"""Event-driven multiprocessor RTDBS simulator (main memory).

:class:`MultiprocessorSimulator` is the array kernel
(:class:`~repro.core.kernel.KernelSimulator`) with its single-CPU
dispatcher replaced by one for ``n_cpus`` processors.  The flat
operation table, the conflict/safety masks, the penalty of conflict,
the lock table, commit/abort/restart, the records and the event budget
are the kernel's; this class overrides only the dispatcher, the CPU
accounting and the shape of the result:

* A dispatch runs at every scheduling point *and* after every phase
  completion.  It computes the *desired* set of up to ``n_cpus``
  transactions, ordered by (priority, on-a-CPU flag, -tid):

  - policies without pre-analysis (EDF-HP, LSF-HP, FCFS) take the top
    ``n_cpus`` runnable transactions;
  - pre-analysis policies (CCA family) admit the highest-priority
    runnable transaction unconditionally (the primary), then greedily
    admit only transactions *compatible* — no conflict or conditional
    conflict — with every already-admitted and every partially executed
    transaction.  Spare CPUs idle rather than run a noncontributing
    execution, mirroring ``IOwait-schedule``.

* Running transactions outside the desired set are preempted, in the
  order they were put on a CPU; then the newly admitted ones are placed
  in set order.  Eager High Priority wounds fire when a transaction is
  placed, as on one CPU.  Unlike there, a wound victim — at dispatch or
  at lock time — may be *running* on another CPU (EDF-HP co-runners can
  conflict): the victim is preempted off its CPU before its rollback is
  priced, because a service-proportional rollback cost reads the service
  that the preemption credits.

* Lock requests between co-runners resolve by wound-wait: pre-analysis
  policies always wound the holder; other policies wound a lower
  priority holder or one whose wait would close a wait-for cycle, and
  otherwise the requester waits (its CPU is freed and refilled).

* The penalty of conflict counts the in-flight compute of every CPU as
  service received.  CPU utilization is busy time over
  ``makespan * n_cpus``; busy time grows by a phase's duration when it
  completes and by the elapsed part when it is preempted.

Operation fusion is off: it relies on the single-CPU invariant that
nothing is scheduled while the one CPU computes, and here the dispatch
after each phase can change the running set at any operation boundary.

Only the main-memory configuration with soft deadlines is modelled (the
paper's announced extension is for shared-memory multiprocessors; disk
contention is orthogonal to CPU parallelism).  Disk-resident and
firm-deadline configurations and wait-promote policies raise
``ValueError``.  ``config.sanitize`` is ignored: RTSan validates the
reference single-CPU engine only.  Oracles, recovery models and
policies without a kernel encoding raise
:class:`~repro.core.kernel.UnsupportedKernelFeature`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.config import SimulationConfig
from repro.core.kernel import S_READY, S_RUNNING, KernelSimulator
from repro.core.oracle import ConflictOracle
from repro.core.policy import PriorityPolicy
from repro.core.simulator import SimulationResult, TraceHook
from repro.rtdb.recovery import RecoveryModel
from repro.rtdb.transaction import TransactionSpec

__all__ = ["MultiprocessorSimulator"]


class MultiprocessorSimulator(KernelSimulator):
    """Simulate one main-memory workload on ``n_cpus`` processors."""

    def __init__(
        self,
        config: SimulationConfig,
        workload: Sequence[TransactionSpec],
        policy: PriorityPolicy,
        n_cpus: int = 2,
        oracle: Optional[ConflictOracle] = None,
        recovery: Optional[RecoveryModel] = None,
        include_rollback_in_penalty: bool = True,
        trace: Optional[TraceHook] = None,
        max_events: Optional[int] = None,
    ) -> None:
        if not workload:
            raise ValueError("workload must contain at least one transaction")
        if n_cpus < 1:
            raise ValueError(f"need at least one CPU, got {n_cpus}")
        if config.disk_resident:
            raise ValueError(
                "the multiprocessor simulator models the main-memory "
                "configuration only"
            )
        if config.firm_deadlines:
            raise ValueError(
                "firm deadlines are not supported on the multiprocessor "
                "simulator (it models soft deadlines only)"
            )
        if policy.wait_promote:
            raise ValueError(
                "wait-promote policies (EDF-WP) are not supported on the "
                "multiprocessor simulator (priority inheritance across "
                "CPUs is out of scope)"
            )
        super().__init__(
            config,
            workload,
            policy,
            oracle=oracle,
            recovery=recovery,
            include_rollback_in_penalty=include_rollback_in_penalty,
            trace=trace,
            max_events=max_events,
            sanitize=False,
        )
        self.n_cpus = n_cpus
        self._fuse = self._cross = False
        # Slots with a phase in flight, in the order they got their CPU.
        self._on_cpu: dict[int, None] = {}

    def run(self) -> SimulationResult:
        """Execute the whole workload and return aggregate results."""
        result = super().run()
        return dataclasses.replace(
            result, policy_name=f"{self.policy.name}x{self.n_cpus}"
        )

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------

    def _on_phase_complete(self, slot: int) -> None:
        self._cpu_busy += self._phase_duration[slot]
        del self._on_cpu[slot]
        self._complete_phase(slot)
        self._run_tx(slot)
        # Progressing this transaction may have freed a CPU (a wound
        # preempted a co-runner, it blocked or committed): refill.
        self._dispatch()

    def _dispatch_once(self) -> None:
        desired = self._choose_set()
        on_cpu = self._on_cpu
        wanted = set(desired)
        for slot in [slot for slot in on_cpu if slot not in wanted]:
            self._preempt(slot)
        state = self._state
        for slot in desired:
            if slot in on_cpu or state[slot] == S_RUNNING:
                continue
            self._place(slot)
            if self._redispatch:
                # State changed under us (a preemption, block or commit
                # inside the placement); restart the dispatch pass.
                return

    def _choose_set(self) -> list[int]:
        """The up-to-``n_cpus`` slots that should be running."""
        state = self._state
        runnable = [slot for slot in self.live if state[slot] <= S_RUNNING]
        if len(runnable) <= 1 and not self._p.static:
            # Nothing to order.  (A static policy must still evaluate:
            # its first evaluation freezes the priority.)
            return runnable
        ordered = self._selection_order(runnable)
        n_cpus = self.n_cpus
        if not self._p.uses_pre_analysis:
            return ordered[:n_cpus]
        # CCA-MP: the primary unconditionally, then compatible fill.
        primary = ordered[0]
        chosen = [primary]
        plist = self._plist
        if not self._o.flat:
            for slot in ordered[1:]:
                if len(chosen) >= n_cpus:
                    break
                if not any(
                    other != slot and self._conflict_possible(slot, other)
                    for other in (*plist, *chosen)
                ):
                    chosen.append(slot)
            return chosen
        # Flat programs: no certain conflict (the SetOracle relation)
        # with the union of the other P-list and chosen slots' masks.
        data = self._masks.data
        write = self._masks.write
        plist_data = plist_write = 0
        for other in plist:
            plist_data |= data[other]
            plist_write |= write[other]
        chosen_data = data[primary]
        chosen_write = write[primary]
        for slot in ordered[1:]:
            if len(chosen) >= n_cpus:
                break
            if slot in plist:
                # A partially executed candidate never conflicts with
                # itself: leave its own masks out of the union.
                others_data = chosen_data
                others_write = chosen_write
                for other in plist:
                    if other != slot:
                        others_data |= data[other]
                        others_write |= write[other]
            else:
                others_data = plist_data | chosen_data
                others_write = plist_write | chosen_write
            if write[slot] & others_data or data[slot] & others_write:
                continue
            chosen.append(slot)
            chosen_data |= data[slot]
            chosen_write |= write[slot]
        return chosen

    def _selection_order(self, runnable: list[int]) -> list[int]:
        """``runnable`` by descending (priority, on-a-CPU flag, -tid)."""
        on_cpu = self._on_cpu
        fast = self._fast_keys
        if fast is not None:
            return sorted(
                runnable,
                key=lambda slot: fast[slot][1] if slot in on_cpu else fast[slot][0],
                reverse=True,
            )
        priority = self._compute_priority if self._direct_prio else self._raw_priority
        tid = self._tid
        return sorted(
            runnable,
            key=lambda slot: priority(slot) + (1 if slot in on_cpu else 0, -tid[slot]),
            reverse=True,
        )

    def _place(self, slot: int) -> None:
        """Put ``slot`` on a free CPU and progress it."""
        if len(self._on_cpu) >= self.n_cpus:
            raise RuntimeError("no free CPU to place a transaction on")
        self._state[slot] = S_RUNNING
        if self._first_dispatch[slot] is None:
            self._first_dispatch[slot] = self.now
        if self.trace is not None:
            self._trace1("dispatch", slot)
        self._resolve_conflicts_at_dispatch(slot)
        self._run_tx(slot)

    def _wound(self, victim: int, by: int, cause: str) -> None:
        # Preempt first: the rollback is priced on the service the
        # preemption credits.
        if victim in self._on_cpu:
            self._preempt(victim)
        super()._wound(victim, by, cause)

    # ------------------------------------------------------------------
    # CPUs
    # ------------------------------------------------------------------

    def _start_phase(self, slot: int, phase: int, duration: float) -> None:
        super()._start_phase(slot, phase, duration)
        self._on_cpu[slot] = None

    def _preempt(self, slot: int) -> None:
        """Take ``slot`` off its CPU mid-phase; it returns to READY."""
        del self._on_cpu[slot]
        self._cpu_busy += self._interrupt_phase(slot)
        self._state[slot] = S_READY
        if self.trace is not None:
            self._trace1("preempt", slot)
        # A preemption outside a dispatch pass (a wound against a
        # co-runner) frees a CPU; make sure the next dispatch refills it.
        self._redispatch = True

    def _release_cpu(self, slot: int) -> None:
        # A transaction holds a CPU only while a phase is in flight, so
        # blocking and committing have no CPU left to give back.
        if slot in self._on_cpu:
            raise RuntimeError("CPU released with a service phase in flight")

    def _cpu_utilization(self, total_time: float) -> float:
        capacity = total_time * self.n_cpus
        return self._cpu_busy / capacity if capacity > 0 else 0.0
