"""Constraint-adding ordering policies (interface + chaotic baseline).

Kept in a leaf module so both the pointer solver and the priority-driven
scheme in :mod:`repro.callgraph.priority` can import it without cycles.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..callgraph.graph import CallGraph, CGNode
    from ..ir import Method


class OrderingPolicy:
    """Decides the order in which pending call-graph nodes get their
    pointer-analysis constraints added (paper §6.1)."""

    def attach(self, lookup_method: Callable[[str], Optional["Method"]],
               call_graph: "CallGraph") -> None:
        """Called once by the solver with the program's method lookup
        and the call graph it grows.  The order never holds the solver
        itself, so a finished solve is freed by reference counting."""

    def on_node_created(self, node: "CGNode") -> None:
        raise NotImplementedError

    def on_edge(self, caller: "CGNode", callee: "CGNode") -> None:
        """Called for every new call-graph edge; priority schemes use it
        to propagate locality along the growing graph."""

    def pop(self) -> Optional["CGNode"]:
        raise NotImplementedError

    def __bool__(self) -> bool:
        raise NotImplementedError


class ChaoticOrder(OrderingPolicy):
    """Plain FIFO constraint adding (the paper's chaotic iteration)."""

    def __init__(self) -> None:
        self._queue: Deque["CGNode"] = deque()

    def on_node_created(self, node: "CGNode") -> None:
        self._queue.append(node)

    def pop(self) -> Optional["CGNode"]:
        return self._queue.popleft() if self._queue else None

    def __bool__(self) -> bool:
        return bool(self._queue)
