"""``repro.resilience`` — deadlines, graceful degradation, and fault
injection for the TAJ pipeline.

The paper's headline robustness claim (§6) is that the bounded analysis
stays *useful under bounded resources*: where exact CS thin slicing
aborts out-of-memory, the bounded hybrid keeps reporting.  This package
generalizes that into a subsystem:

* :class:`Deadline` / :class:`DeadlineExceeded` — a cooperative
  wall-clock budget checked at the pointer-solver, tabulation, and
  slicing seams, alongside §6's work budgets;
* :class:`Degradation` + the ladder (``cs`` → ``hybrid`` → ``ci`` →
  abandon-remaining) — budget/deadline failures descend one rung per
  rule, always keeping the flows already collected;
* :class:`Diagnostic` / :class:`DiagnosticsCollector` — the structured
  record of every absorbed failure, including per-source quarantine in
  the frontend;
* :class:`Fault` / :class:`FaultPlan` / :class:`FaultInjector` —
  deterministic scripted faults at the phase seams, so tests and CI
  (``benchmarks/fault_injection.py``) can prove each seam failure yields
  a ``TAJResult`` with diagnostics, never an unhandled traceback;
* :class:`ResilienceContext` — the per-run bundle threaded through the
  pipeline, whose :meth:`~ResilienceContext.completeness` summarizes the
  run (``complete`` / ``partial-budget`` / ``partial-deadline`` /
  ``partial-fault`` / ``failed``).

Semantics and the fault-plan format: ``docs/robustness.md``.
"""

from .context import (COMPLETE, FAILED, LADDER, PARTIAL_BUDGET,
                      PARTIAL_DEADLINE, PARTIAL_FAULT, Degradation,
                      ResilienceContext, next_strategy, trigger_of)
from .deadline import Deadline, DeadlineExceeded
from .diagnostics import Diagnostic, DiagnosticsCollector, \
    classify_exception
from .faults import (ACTIONS, EXCEPTIONS, SEAMS, Fault, FaultInjector,
                     FaultPlan, InjectedFault)

__all__ = [
    "ACTIONS", "COMPLETE", "Deadline", "DeadlineExceeded", "Degradation",
    "Diagnostic", "DiagnosticsCollector", "EXCEPTIONS", "FAILED", "Fault",
    "FaultInjector", "FaultPlan", "InjectedFault", "LADDER",
    "PARTIAL_BUDGET", "PARTIAL_DEADLINE", "PARTIAL_FAULT",
    "ResilienceContext", "SEAMS", "classify_exception", "next_strategy",
    "trigger_of",
]
