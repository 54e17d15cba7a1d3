"""The per-run resilience context: deadline + faults + diagnostics +
the degradation ladder's bookkeeping.

One :class:`ResilienceContext` accompanies one analysis run.  Pipeline
components call :meth:`check` at their seams (near-free when nothing is
armed); failure handlers call :meth:`degrade` / :meth:`fail` so every
survived fault is accounted for.  :meth:`completeness` folds the record
into the run's completeness state:

* ``complete``          — nothing was absorbed;
* ``partial-deadline``  — the wall-clock budget cut work short;
* ``partial-budget``    — a §6 work budget cut work short;
* ``partial-fault``     — a fault was absorbed (quarantined source,
  injected/internal error in a non-essential phase) but results exist;
* ``failed``            — an essential phase died; the result carries
  diagnostics but no useful analysis.

The **degradation ladder** (``LADDER``) orders the slicing strategies
from most precise to cheapest: a rule that exhausts its budget or
deadline under CS is retried with the hybrid strategy, a hybrid failure
falls back to CI, and a CI failure abandons the remaining rules —
keeping, at every step, the flows already collected.  This mirrors the
paper's central robustness claim (§6): the bounded configurations keep
reporting where the exact CS configuration aborts out-of-memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..bounds import BudgetExhausted
from .deadline import Deadline, DeadlineExceeded
from .diagnostics import DiagnosticsCollector
from .faults import FaultInjector, FaultPlan

# Completeness states (docs/robustness.md).
COMPLETE = "complete"
PARTIAL_BUDGET = "partial-budget"
PARTIAL_DEADLINE = "partial-deadline"
PARTIAL_FAULT = "partial-fault"
FAILED = "failed"

# The fallback order: most precise strategy -> cheapest.  ``None`` means
# no further fallback: abandon remaining work, keep collected flows.
# "summary" is hybrid-precision with a cache in front, so its fallback
# rung is plain hybrid: a tripped summary sweep re-slices without the
# cache machinery rather than losing precision straight to ci.
LADDER: Dict[str, Optional[str]] = {"cs": "hybrid", "summary": "hybrid",
                                    "hybrid": "ci", "ci": None}


def next_strategy(strategy: str) -> Optional[str]:
    return LADDER.get(strategy)


def trigger_of(exc: BaseException) -> str:
    """Classify a ladder trigger exception."""
    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    if isinstance(exc, BudgetExhausted):
        return "budget"
    return "fault"


@dataclass
class Degradation:
    """One rung descended: ``phase`` degraded to ``fallback`` because of
    ``trigger`` (``budget`` | ``deadline`` | ``fault``)."""

    phase: str
    trigger: str
    fallback: str
    detail: str = ""

    def to_dict(self) -> Dict[str, str]:
        out = {"phase": self.phase, "trigger": self.trigger,
               "fallback": self.fallback}
        if self.detail:
            out["detail"] = self.detail
        return out


class ResilienceContext:
    """Deadline + fault injector + diagnostics for one analysis run."""

    def __init__(self, deadline: Optional[Deadline] = None,
                 faults: Optional[FaultPlan] = None,
                 quarantine: bool = False,
                 ladder: bool = False) -> None:
        self.deadline = deadline
        self.injector = FaultInjector(faults) if faults else None
        # Quarantine: skip (and diagnose) source units that fail the
        # frontend instead of failing the whole run.
        self.quarantine = quarantine
        # Ladder: retry budget/deadline-failed rules with the next
        # cheaper slicing strategy instead of aborting the sweep.
        self.ladder = ladder
        self.diagnostics = DiagnosticsCollector()
        self.degradations: List[Degradation] = []
        self.failed_phase: Optional[str] = None

    # -- activity ----------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether any resilience feature is armed.  Inactive contexts
        preserve the legacy contract: exceptions propagate."""
        return (self.deadline is not None or self.injector is not None
                or self.quarantine or self.ladder)

    # -- seams -------------------------------------------------------------

    def check(self, seam: str, phase: Optional[str] = None) -> None:
        """The cooperative check point: fire scripted faults, then the
        deadline.  Cheap when nothing is armed."""
        if self.injector is not None:
            self.injector.visit(seam, self.deadline)
        if self.deadline is not None:
            self.deadline.check(phase or seam)

    def corrupt(self, seam: str, payload: str) -> str:
        """Seam variant for payload-carrying seams (source text)."""
        if self.injector is not None:
            out = self.injector.visit(seam, self.deadline, payload)
            payload = payload if out is None else out
        if self.deadline is not None:
            self.deadline.check(seam)
        return payload

    # -- bookkeeping -------------------------------------------------------

    def degrade(self, phase: str, trigger: str, fallback: str,
                detail: str = "") -> Degradation:
        deg = Degradation(phase, trigger, fallback, detail)
        self.degradations.append(deg)
        return deg

    def quarantine_source(self, exc: BaseException,
                          source_index: Optional[int],
                          **detail: object) -> None:
        self.diagnostics.absorb("frontend", exc, source_index=source_index,
                                **detail)
        self.degrade("frontend", "fault", "quarantine-source",
                     detail=str(exc))

    def fail(self, phase: str, exc: BaseException) -> None:
        """An essential phase died: record it and mark the run failed."""
        self.diagnostics.absorb(phase, exc)
        if self.failed_phase is None:
            self.failed_phase = phase

    # -- summary -----------------------------------------------------------

    def completeness(self) -> str:
        if self.failed_phase is not None:
            return FAILED
        triggers = {d.trigger for d in self.degradations}
        if "deadline" in triggers:
            return PARTIAL_DEADLINE
        if "budget" in triggers:
            return PARTIAL_BUDGET
        if self.degradations or self.diagnostics:
            return PARTIAL_FAULT
        return COMPLETE

    def deadline_remaining(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return self.deadline.remaining()
