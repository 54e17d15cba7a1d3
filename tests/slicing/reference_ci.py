"""The per-seed BFS CI slicer, kept as a differential oracle.

This is ``repro.slicing.ci.CISlicer`` as it was before the compiled
kernel replaced it: every seed walks the graph afresh with ``Fact``
keys and ``Meta`` records.  ``tests/slicing/test_ci_kernel.py`` checks
that the kernel finds the same flows, ``truncated`` flag and
``suppressed_by_length`` count on every corpus, budget and fault;
nothing under ``src/`` imports it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Set, Tuple

from repro.sdg.nodes import Fact, RET, Stmt, StmtRef
from repro.sdg.tabulation import Meta, RuleAdapter
from repro.slicing.base import (FlowCollector, Slicer, SourceSeed,
                                enumerate_sources)
from repro.taint.flows import TaintFlow
from repro.taint.rules import SecurityRule


class ReferenceCISlicer(Slicer):
    """Flow-insensitive/context-insensitive closure over the full graph."""

    name = "ci"

    def slice_rule(self, rule: SecurityRule) -> List[TaintFlow]:
        adapter = RuleAdapter(self.sdg, rule)
        carriers = self.make_carrier_index(adapter)
        collector = FlowCollector(rule, self.budget)
        for seed in enumerate_sources(self.sdg, rule):
            self._trace(seed, adapter, carriers, collector)
        return self._collect(collector)

    def _trace(self, seed: SourceSeed, adapter: RuleAdapter, carriers,
               collector: FlowCollector) -> None:
        source = seed.stmt.ref
        visited: Dict[Fact, Meta] = {}
        work: Deque[Tuple[Fact, Meta]] = deque()
        heap_transitions = 0

        def push(fact: Fact, meta: Meta) -> None:
            if fact not in visited:
                visited[fact] = meta
                work.append((fact, meta))

        if seed.call_lhs:
            push(Fact(source.method, seed.call_lhs), Meta())
        for arg in seed.ref_args:
            for site, display in carriers.sinks_for_object(source.method,
                                                           arg):
                collector.add(source, site.stmt, display, 1, None, True)
            for load in self.direct.loads_for_tainted_object(source.method,
                                                             arg):
                push(Fact(load.stmt.ref.method, load.lhs), Meta(1, None, 1))

        resilience = self.resilience
        while work:
            if resilience is not None:
                # Cooperative deadline / fault seam, one per BFS pop
                # (the CI analogue of the tabulation.step seam).
                resilience.check("ci.step", phase="taint")
            fact, meta = work.popleft()
            method, var = fact.method, fact.var
            for edge in self.sdg.succs_of(fact):
                if adapter.is_sanitizer_strop(edge.stmt):
                    continue
                if edge.dst == RET:
                    # Context-insensitive return: flow to EVERY caller.
                    for site in self.sdg.callers_of.get(method, []):
                        if site.call.lhs:
                            push(Fact(site.stmt.method, site.call.lhs),
                                 meta.extend())
                else:
                    push(Fact(method, edge.dst), meta.extend())
            for store in self.sdg.stores_using(method, var):
                hit_meta = meta.extend()
                for site, display in carriers.sinks_for_store(store):
                    collector.add(source, site.stmt, display,
                                  hit_meta.steps + 1, hit_meta.crossing,
                                  True, hit_meta.transitions)
                # The local counter only feeds the §6.2.1 budget; flows
                # record the witness-relative ``Meta.transitions``.
                limit = self.budget.max_heap_transitions
                if limit is not None and heap_transitions >= limit:
                    self.truncated = True
                    continue
                loads = self.direct.loads_for_store(store)
                if loads:
                    heap_transitions += 1
                for load in loads:
                    crossing = hit_meta.crossing
                    if store.stmt.in_application and \
                            not load.stmt.in_application:
                        crossing = store.stmt.ref
                    push(Fact(load.stmt.ref.method, load.lhs),
                         Meta(hit_meta.steps + 1, crossing,
                              hit_meta.transitions + 1))
            for site, positions in self.sdg.calls_using(method, var):
                vulnerable, sanitizer, sink_display = adapter.classify(site)
                if sink_display is not None:
                    if vulnerable == () or any(
                            p in vulnerable for p in positions if p >= 0):
                        collector.add(source, site.stmt, sink_display,
                                      meta.steps + 1, meta.crossing, False,
                                      meta.transitions)
                if sanitizer or sink_display is not None:
                    continue
                descended = False
                crossing_at_call = None
                for target in site.targets:
                    if site.stmt.in_application and \
                            not self._is_app(target):
                        crossing_at_call = site.stmt.ref
                    for actual, formal in self.sdg.bindings(site, target):
                        if actual != var:
                            continue
                        descended = True
                        push(Fact(target, formal),
                             meta.extend(crossing=crossing_at_call))
                if not descended and site.native_targets and \
                        site.call.lhs and var != site.call.receiver:
                    push(Fact(method, site.call.lhs), meta.extend())

    def _is_app(self, qname: str) -> bool:
        method = self.sdg.program.lookup_method(qname)
        return bool(method) and \
            self.sdg.program.is_application_method(method) and \
            not method.is_synthetic
