"""Shared-memory multiprocessor scheduling (paper future work).

The paper's conclusion announces "a combination of CCA and EDF-HP for
shared memory multiprocessors"; this package implements that extension
for the main-memory configuration:

* **EDF-HP-MP** — the k highest-priority ready transactions run, one per
  CPU; data conflicts between co-runners resolve by High Priority
  wound-wait exactly as on one CPU.
* **CCA-MP** — the highest-priority transaction always runs (the
  primary, wounding its unsafe victims at dispatch as on one CPU);
  every *additional* CPU only runs a transaction compatible with all
  currently running and partially executed transactions — the
  ``IOwait-schedule`` rule generalized from "the CPU freed by an IO
  wait" to "any spare CPU".  Extra CPUs idle rather than perform
  noncontributing executions.

See :class:`repro.mp.simulator.MultiprocessorSimulator`: a subclass of
the array kernel (:class:`repro.core.kernel.KernelSimulator`) that
replaces the single-CPU dispatcher with a k-CPU one and shares the
kernel's operation table, conflict masks, penalty scans and lock table.
"""

from repro.mp.simulator import MultiprocessorSimulator

__all__ = ["MultiprocessorSimulator"]
