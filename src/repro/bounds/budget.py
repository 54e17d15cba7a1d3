"""Analysis budgets (paper §6).

A :class:`Budget` gathers every bound TAJ supports:

* ``max_cg_nodes`` — call-graph size bound for priority-driven /
  prioritized construction (§6.1);
* ``max_heap_transitions`` — store-to-load expansions during hybrid thin
  slicing (§6.2.1);
* ``max_flow_length`` — reported-flow length filter (§6.2.2);
* ``max_nested_depth`` — field-dereference depth for taint-carrier
  detection (§6.2.3);
* ``max_state_units`` — an abstract memory budget, used to emulate the
  1 GB JVM heap that the CS thin-slicing baseline exhausts on the large
  benchmarks (the paper reports those runs as out-of-memory failures).

``None`` means unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class BudgetExhausted(Exception):
    """Raised when a hard budget (memory emulation) is exceeded.

    A trigger of the degradation ladder (``repro.resilience``): the
    taint engine catches it per rule, keeps the flows already
    collected, and — when the ladder is enabled — retries the rule with
    the next cheaper slicing strategy.
    """

    def __init__(self, dimension: str, limit: int) -> None:
        self.dimension = dimension
        self.limit = limit
        super().__init__(f"analysis budget exhausted: {dimension} > {limit}")


@dataclass
class Budget:
    """Bounds for one analysis run; ``None`` disables a bound."""

    max_cg_nodes: Optional[int] = None
    max_heap_transitions: Optional[int] = None
    max_flow_length: Optional[int] = None
    max_nested_depth: Optional[int] = None
    max_state_units: Optional[int] = None


class StateMeter:
    """Counts abstract state units against ``max_state_units``.

    The CS thin-slicing baseline charges one unit per exploded
    supergraph node it materializes; exceeding the limit raises
    :class:`BudgetExhausted`, modeling the out-of-memory failures the
    paper observed for CS on 16 of the 22 benchmarks.
    """

    def __init__(self, limit: Optional[int]) -> None:
        self.limit = limit
        self.used = 0

    def charge(self, units: int = 1) -> None:
        self.used += units
        if self.limit is not None and self.used > self.limit:
            raise BudgetExhausted("state_units", self.limit)


UNBOUNDED = Budget()
