"""Hybrid thin slicing — the paper's primary contribution (§3.2).

Flow through locals: flow- and context-sensitive, via RHS tabulation
over the no-heap SDG.  Flow through the heap: flow-insensitive, via
direct store→load edges justified by the preliminary pointer analysis.
Successors are computed on demand: heap edges only materialize when a
tainted value actually reaches a store.

The traversal also applies the two taint-specific HSDG augmentations:

* taint-carrier edges store→sink (§4.1.1, via :class:`CarrierIndex`);
* by-reference sources that taint a parameter's object state.

The heap-transition budget (§6.2.1) bounds the number of store→load
expansions; exceeding it truncates the slice (``truncated`` flag).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..bounds import StateMeter
from ..sdg.nodes import Stmt, StmtRef
from ..sdg.noheap import StoreSite
from ..sdg.tabulation import Hit, Meta, RuleAdapter, Tabulator
from ..taint.flows import TaintFlow
from ..taint.rules import SecurityRule
from .base import FlowCollector, Slicer, SourceSeed, enumerate_sources


class HybridSlicer(Slicer):
    """Demand-driven traversal of the HSDG."""

    name = "hybrid"

    def __init__(self, *args, meter: Optional[StateMeter] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.meter = meter
        self.heap_transitions = 0

    # -- per-rule state (reset in slice_rule) --------------------------------

    def slice_rule(self, rule: SecurityRule) -> List[TaintFlow]:
        adapter = RuleAdapter(self.sdg, rule)
        carriers = self.make_carrier_index(adapter)
        collector = FlowCollector(rule, self.budget)
        sources: Dict[str, StmtRef] = {}
        seeded_loads: Set[Tuple[str, StmtRef]] = set()
        self.heap_transitions = 0

        def on_hit(origin_id: str, hit: Hit) -> None:
            source = sources[origin_id]
            if hit.kind == "sink":
                collector.add(source, hit.stmt, hit.sink_display,
                              hit.meta.steps, hit.meta.crossing, False,
                              hit.meta.transitions)
            elif hit.kind == "store":
                self._expand_store(tab, origin_id, hit, carriers,
                                   collector, sources, seeded_loads)

        tab = self._make_tabulator(adapter, on_hit)
        for seed in enumerate_sources(self.sdg, rule):
            sources[seed.origin_id] = seed.stmt.ref
            if seed.call_lhs:
                tab.seed_origin(seed.origin_id, seed.stmt.ref.method,
                                seed.call_lhs)
            for arg in seed.ref_args:
                self._seed_ref_source(tab, seed, arg, carriers, collector,
                                      seeded_loads)
        tab.run()
        return self._collect(collector)

    def _make_tabulator(self, adapter: RuleAdapter, on_hit) -> Tabulator:
        """Factory seam: the summary engine (:mod:`repro.summaries`)
        substitutes a cache-sealing tabulator here; everything else in
        the traversal is shared."""
        return Tabulator(self.sdg, adapter, on_hit, meter=self.meter,
                         resilience=self.resilience)

    # -- heap expansion ----------------------------------------------------------

    def _budget_left(self) -> bool:
        limit = self.budget.max_heap_transitions
        if limit is not None and self.heap_transitions >= limit:
            self.truncated = True
            return False
        return True

    def _expand_store(self, tab: Tabulator, origin_id: str, hit: Hit,
                      carriers, collector: FlowCollector,
                      sources: Dict[str, StmtRef],
                      seeded_loads: Set[Tuple[str, StmtRef]]) -> None:
        store = hit.store
        source = sources[origin_id]
        # Taint-carrier edges store→sink (§4.1.1), with the clone-precise
        # base resolved by hit replay when available.
        for site, display in carriers.sinks_for_store(store, hit.eff_base):
            collector.add(source, site.stmt, display,
                          hit.meta.steps + 1, hit.meta.crossing, True,
                          hit.meta.transitions)
        # Direct store→load edges.  ``self.heap_transitions`` stays a
        # slicer-global counter for the §6.2.1 budget; the value recorded
        # on flows is the witness-relative ``Meta.transitions``.
        if not self._budget_left():
            return
        loads = self.direct.loads_for_store(store, hit.eff_base)
        if loads:
            self.heap_transitions += 1
        for load in loads:
            token = (origin_id, load.stmt.ref)
            if token in seeded_loads:
                continue
            seeded_loads.add(token)
            crossing = hit.meta.crossing
            if store.stmt.in_application and not load.stmt.in_application:
                crossing = store.stmt.ref
            tab.seed_origin(origin_id, load.stmt.ref.method, load.lhs,
                            Meta(hit.meta.steps + 1, crossing,
                                 hit.meta.transitions + 1))

    def _seed_ref_source(self, tab: Tabulator, seed: SourceSeed, arg: str,
                         carriers, collector: FlowCollector,
                         seeded_loads: Set[Tuple[str, StmtRef]]) -> None:
        """A by-reference source taints the argument's object state."""
        method = seed.stmt.ref.method
        for site, display in carriers.sinks_for_object(method, arg):
            collector.add(seed.stmt.ref, site.stmt, display, 1, None, True)
        if not self._budget_left():
            return
        loads = self.direct.loads_for_tainted_object(method, arg)
        if loads:
            self.heap_transitions += 1
        for load in loads:
            token = (seed.origin_id, load.stmt.ref)
            if token in seeded_loads:
                continue
            seeded_loads.add(token)
            crossing = None
            if seed.stmt.in_application and not load.stmt.in_application:
                crossing = seed.stmt.ref
            tab.seed_origin(seed.origin_id, load.stmt.ref.method,
                            load.lhs, Meta(1, crossing, 1))
