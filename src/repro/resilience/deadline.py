"""Cooperative wall-clock deadlines for the analysis pipeline.

The paper's §6 budgets bound *work* (call-graph nodes, heap
transitions, abstract state units); a :class:`Deadline` bounds *time*.
It is cooperative: long-running loops — the pointer solver's node loop,
the tabulation worklist, the CI slicer's BFS — call :meth:`check` at
their iteration seams, and an expired deadline surfaces as
:class:`DeadlineExceeded` there rather than at some arbitrary stack
depth.  The degradation ladder (``repro.resilience.context``) treats it
exactly like :class:`~repro.bounds.BudgetExhausted`: already-collected
flows are kept and the run is reported as ``partial-deadline``.

The clock is injectable so tests (and the fault injector's
``trip-deadline`` action) can drive expiry deterministically.
"""

from __future__ import annotations

import time
from typing import Callable, Optional


class DeadlineExceeded(Exception):
    """Raised at a cooperative check point once the deadline passed."""

    def __init__(self, phase: str, limit_seconds: float,
                 elapsed_seconds: float) -> None:
        self.phase = phase
        self.limit_seconds = limit_seconds
        self.elapsed_seconds = elapsed_seconds
        super().__init__(
            f"deadline exceeded in {phase}: "
            f"{elapsed_seconds:.3f}s elapsed > {limit_seconds:.3f}s budget")


class Deadline:
    """A wall-clock budget, armed on first use.

    ``seconds`` is the total budget; the clock starts on the first
    :meth:`check`/:meth:`remaining` call (i.e. when the pipeline starts
    consuming it), not at construction.
    """

    def __init__(self, seconds: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.seconds = float(seconds)
        self._clock = clock
        self._started: Optional[float] = None
        self._tripped = False

    # -- state -------------------------------------------------------------

    def start(self) -> "Deadline":
        if self._started is None:
            self._started = self._clock()
        return self

    def elapsed(self) -> float:
        if self._started is None:
            return 0.0
        return max(0.0, self._clock() - self._started)

    def remaining(self) -> float:
        """Seconds left (0.0 once expired); arms the deadline."""
        self.start()
        if self._tripped:
            return 0.0
        return max(0.0, self.seconds - self.elapsed())

    def expired(self) -> bool:
        self.start()
        return self._tripped or self.elapsed() > self.seconds

    def trip(self) -> None:
        """Force immediate expiry (fault injection: ``trip-deadline``)."""
        self.start()
        self._tripped = True

    def check(self, phase: str) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(phase, self.seconds, self.elapsed())
