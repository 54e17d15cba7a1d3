"""Shared infrastructure for the three thin-slicing strategies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..bounds import Budget
from ..pointer.heapgraph import HeapGraph
from ..sdg.hsdg import DirectEdges
from ..sdg.nodes import Stmt, StmtRef
from ..sdg.noheap import CallSite, NoHeapSDG
from ..taint.carriers import CarrierIndex
from ..taint.flows import TaintFlow
from ..taint.rules import SecurityRule


@dataclass
class SourceSeed:
    """A taint origin: a source call statement."""

    stmt: Stmt
    call_lhs: Optional[str]
    # by-reference tainted argument variables (paper footnote 2)
    ref_args: List[str] = field(default_factory=list)

    @property
    def origin_id(self) -> str:
        return f"src:{self.stmt.ref.method}@{self.stmt.ref.iid}"


def enumerate_sources(sdg: NoHeapSDG,
                      rule: SecurityRule) -> List[SourceSeed]:
    """All source call statements for a rule, reachable in the call graph."""
    seeds: List[SourceSeed] = []
    for sites in sdg.call_sites.values():
        for site in sites:
            displays = list(site.native_targets) + \
                [t.rsplit("/", 1)[0] for t in site.targets]
            matched = None
            ref_args: List[str] = []
            for display in displays:
                if rule.source_match(site.call, display) is not None:
                    matched = display
                ref = rule.ref_source_match(site.call, display)
                if ref is not None:
                    for idx in rule.ref_sources.get(ref, ()):
                        if idx < len(site.call.args):
                            ref_args.append(site.call.args[idx])
            if matched is not None or ref_args:
                seeds.append(SourceSeed(site.stmt, site.call.lhs, ref_args))
    return seeds


class FlowCollector:
    """Accumulates deduplicated flows and applies the flow-length bound."""

    def __init__(self, rule: SecurityRule, budget: Budget) -> None:
        self.rule = rule
        self.budget = budget
        self._flows: Dict[Tuple, TaintFlow] = {}
        self.suppressed_by_length = 0

    def add(self, source: StmtRef, sink_stmt: Stmt, sink_display: str,
            length: int, crossing: Optional[StmtRef],
            via_carrier: bool, heap_transitions: int = 0) -> None:
        limit = self.budget.max_flow_length
        if limit is not None and length > limit:
            self.suppressed_by_length += 1
            return
        # The LCP is the last app→lib transition; the sink call itself is
        # that transition when it appears in application code.
        if sink_stmt.in_application:
            lcp = sink_stmt.ref
        else:
            lcp = crossing or source
        flow = TaintFlow(rule=self.rule.name, source=source,
                         sink=sink_stmt.ref, sink_display=sink_display,
                         lcp=lcp, length=length, via_carrier=via_carrier,
                         heap_transitions=heap_transitions)
        key = flow.key()
        existing = self._flows.get(key)
        # Prefer the shortest witness; break length ties by sort key so
        # the survivor never depends on traversal discovery order.
        if existing is None or flow.length < existing.length or (
                flow.length == existing.length
                and flow.sort_key() < existing.sort_key()):
            self._flows[key] = flow

    def flows(self) -> List[TaintFlow]:
        return sorted(self._flows.values(), key=TaintFlow.sort_key)


class Slicer:
    """Interface implemented by the hybrid / CS / CI strategies."""

    name = "abstract"

    def __init__(self, sdg: NoHeapSDG, direct: DirectEdges,
                 heap_graph: HeapGraph, budget: Budget,
                 resilience: Optional[object] = None,
                 carrier_cache: Optional[Dict] = None) -> None:
        self.sdg = sdg
        self.direct = direct
        self.heap_graph = heap_graph
        self.budget = budget
        # Cooperative deadline / fault-injection context
        # (repro.resilience); strategies hand it to their traversal
        # loops so a wall-clock deadline can cut a slice short.
        self.resilience = resilience
        self.truncated = False
        # Flows dropped by the §6.2.2 flow-length bound, summed over
        # every rule sliced (fed by _collect via each strategy).
        self.suppressed_by_length = 0
        # Optional rule-name → CarrierIndex cache, shared by the owner
        # (the taint engine) across slicer instances.  The index is a
        # whole-SDG scan that depends only on the rule and the nested
        # depth bound — both fixed per engine — and is read-only after
        # construction, so reuse across ladder retries is safe and
        # saves the scan's cost per slice_rule call.
        self._carrier_cache = carrier_cache

    def slice_rule(self, rule: SecurityRule) -> List[TaintFlow]:
        """Slice one rule from every seed :func:`enumerate_sources`
        finds."""
        raise NotImplementedError

    def _collect(self, collector: FlowCollector) -> List[TaintFlow]:
        """Drain a rule's collector, accumulating its suppression count
        onto the slicer."""
        self.suppressed_by_length += collector.suppressed_by_length
        return collector.flows()

    def make_carrier_index(self, adapter) -> CarrierIndex:
        cache = self._carrier_cache
        if cache is None:
            return CarrierIndex(self.sdg, self.direct, self.heap_graph,
                                adapter, self.budget.max_nested_depth)
        index = cache.get(adapter.rule.name)
        if index is None:
            index = CarrierIndex(self.sdg, self.direct, self.heap_graph,
                                 adapter, self.budget.max_nested_depth)
            cache[adapter.rule.name] = index
        return index
