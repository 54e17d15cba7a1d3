"""Tainted-flow records produced by the engine.

:func:`canonical_flows` defines the engine's output order.  Everything
downstream of the per-rule sweep — report grouping, JSON payloads, the
differential harness — consumes flows in this canonical form, so a
report never depends on the order in which rules or seeds were sliced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from ..sdg.nodes import StmtRef


@dataclass(frozen=True)
class TaintFlow:
    """One source→sink flow with no sanitizer on the path.

    ``lcp`` is the library call point (paper §5): the last statement on
    the flow where data crosses from application code into library code.
    ``length`` is the traversed-edge count (the §6.2.2 flow-length
    metric).  ``via_carrier`` marks flows completed by taint-carrier
    detection (§4.1.1) rather than by direct value flow into the sink.
    """

    rule: str
    source: StmtRef
    sink: StmtRef
    sink_display: str
    lcp: StmtRef
    length: int
    via_carrier: bool = False
    heap_transitions: int = 0

    def key(self):
        """Identity for deduplication: one report per source/sink pair
        per rule."""
        return (self.rule, self.source, self.sink)

    def sort_key(self) -> Tuple:
        """Total order over flows that is stable across processes.

        Built from rendered strings and plain ints only — never from
        identity hashes or interning order — so any two runs sort the
        same flow set into the same sequence.
        """
        return (self.rule, str(self.source), str(self.sink),
                self.sink_display, str(self.lcp), self.length,
                self.via_carrier, self.heap_transitions)

    def describe(self) -> str:
        kind = "carrier" if self.via_carrier else "direct"
        return (f"[{self.rule}] {self.source} -> {self.sink} "
                f"({self.sink_display}, {kind}, len={self.length}, "
                f"lcp={self.lcp})")


def canonical_flows(flows: Iterable[TaintFlow]) -> List[TaintFlow]:
    """Dedupe by :meth:`TaintFlow.key` and sort by
    :meth:`TaintFlow.sort_key`.

    When duplicates disagree on the path-dependent attributes (length,
    lcp, carrier-ness — possible when several slices reach the same
    source/sink pair), the sort-key-smallest witness is kept, so the
    survivor does not depend on discovery order either.
    """
    best: dict = {}
    for flow in flows:
        key = flow.key()
        kept = best.get(key)
        if kept is None or flow.sort_key() < kept.sort_key():
            best[key] = flow
    return sorted(best.values(), key=TaintFlow.sort_key)
