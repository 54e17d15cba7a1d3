"""Context-sensitive (CS) thin slicing — the expensive baseline (§3.2, [33]).

CS thin slicing "tracks heap data dependencies via additional method
parameters and return values".  We realize this by extending the no-heap
SDG with *heap-channel facts*: a synthetic fact ``@f:<field>`` (or
``@s:<Class.field>`` for statics) per method, with

* a store ``base.f = v`` feeding one channel per abstract object its
  base may point to (``@f:f:<instance-key>``) — aliasing decides which
  loads each store can reach, as in the original CS algorithm;
* each channel feeding every load ``u = base.f`` whose base may point to
  that instance key;
* channels threaded through every call edge whose callee (transitively)
  accesses them — the "additional parameters and return values".

Every tainted fact, including channel facts, costs a state unit, and the
channel threading multiplies facts by the size of transitive mod/ref
sets — precisely "the scalability bottleneck" the paper describes.  The
state meter emulates the 1 GB heap: on the large benchmarks the run
aborts with :class:`BudgetExhausted`, which the harness reports the way
the paper reports CS's out-of-memory failures.

CS is also *unsound for multithreaded programs* (paper §3.2): heap state
threaded along the sequential call structure never crosses a
``Thread.start`` boundary, so flows into ``run()`` methods are missed —
reproducing the false negatives the paper observed on BlueBlog, I, and
SBM.  Taint-carrier detection (a code-modeling feature, orthogonal to
the slicing strategy) stays enabled.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..bounds import StateMeter
from ..callgraph.graph import CallGraph
from ..ir import Program
from ..sdg.nodes import Fact, Stmt, StmtRef
from ..sdg.noheap import ANY_FIELD, CallSite, LocalEdge, NoHeapSDG
from ..sdg.tabulation import (Hit, Meta, RuleAdapter, Tabulator,
                              is_thread_edge)
from ..taint.flows import TaintFlow
from ..taint.rules import SecurityRule
from .base import FlowCollector, Slicer, enumerate_sources


def _static_channel(fld: str) -> str:
    return f"@s:{fld}"


class CSExtendedSDG(NoHeapSDG):
    """No-heap SDG + heap-channel facts and their call-edge threading."""

    def __init__(self, program: Program, call_graph: CallGraph,
                 analysis) -> None:
        super().__init__(program, call_graph)
        self.analysis = analysis
        self._extra_succs: Dict[Fact, List[LocalEdge]] = {}
        self.modref: Dict[str, Set[str]] = {}
        self._pts_cache: Dict[Tuple[str, str], frozenset] = {}
        # The degradation ladder (repro.resilience) disables the heap
        # channels when falling back from CS to hybrid/CI, turning this
        # graph back into a plain no-heap SDG for the fallback slicer.
        self.channels_enabled = True
        self._build_channels()
        self._build_modref()

    def disable_channels(self) -> None:
        self.channels_enabled = False

    def _pts(self, method: str, var: str) -> frozenset:
        key = (method, var)
        cached = self._pts_cache.get(key)
        if cached is None:
            cached = frozenset(self.analysis.points_to_var(method, var))
            self._pts_cache[key] = cached
        return cached

    def _channels_for(self, method: str, base: str, fld: str) -> List[str]:
        """One channel per abstract object the base may point to."""
        return [f"@f:{fld}:{ikey}" for ikey in self._pts(method, base)]

    def _build_channels(self) -> None:
        self._gen: Dict[str, Set[str]] = {}
        for fld, stores in self.stores_by_field.items():
            for store in stores:
                if store.base is None:
                    channels = [_static_channel(fld)]
                else:
                    channels = self._channels_for(store.stmt.method,
                                                  store.base, fld)
                src = Fact(store.stmt.method, store.value)
                for ch in channels:
                    self._extra_succs.setdefault(src, []).append(
                        LocalEdge(ch, store.stmt))
                    self._gen.setdefault(store.stmt.method, set()).add(ch)
        for fld, loads in self.loads_by_field.items():
            if fld == ANY_FIELD:
                continue
            for load in loads:
                if load.base is None:
                    channels = [_static_channel(fld)]
                else:
                    channels = self._channels_for(load.stmt.method,
                                                  load.base, fld)
                for ch in channels:
                    src = Fact(load.stmt.method, ch)
                    self._extra_succs.setdefault(src, []).append(
                        LocalEdge(load.lhs, load.stmt))
                    self._gen.setdefault(load.stmt.method, set()).add(ch)

    def _build_modref(self) -> None:
        # Transitive field-access sets over the call graph, excluding
        # thread-spawn edges (the source of CS's unsoundness).
        methods = set(self.call_sites)
        for qname in methods:
            self.modref[qname] = set(self._gen.get(qname, ()))
        changed = True
        while changed:
            changed = False
            for qname in methods:
                acc = self.modref[qname]
                for site in self.call_sites.get(qname, []):
                    for target in site.targets:
                        if is_thread_edge(site, target):
                            continue
                        extra = self.modref.get(target)
                        if extra and not extra <= acc:
                            acc |= extra
                            changed = True

    # -- overrides ------------------------------------------------------------

    def succs_of(self, fact: Fact) -> List[LocalEdge]:
        base = super().succs_of(fact)
        if not self.channels_enabled:
            return base
        extra = self._extra_succs.get(fact)
        return base + extra if extra else base

    def calls_using(self, method: str,
                    var: str) -> List[Tuple[CallSite, List[int]]]:
        if not var.startswith("@") or not self.channels_enabled:
            return super().calls_using(method, var)
        out: List[Tuple[CallSite, List[int]]] = []
        for site in self.call_sites.get(method, []):
            if any(var in self.modref.get(t, ()) for t in site.targets
                   if not is_thread_edge(site, t)):
                out.append((site, [-2]))
        return out

    def bindings(self, site: CallSite,
                 target: str) -> List[Tuple[str, str]]:
        pairs = super().bindings(site, target)
        if not self.channels_enabled or is_thread_edge(site, target):
            return pairs
        for ch in sorted(self.modref.get(target, ())):
            pairs.append((ch, ch))
        return pairs


class CSSlicer(Slicer):
    """Tabulation over the channel-extended SDG; no direct heap edges."""

    name = "cs"

    def __init__(self, *args, meter: Optional[StateMeter] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.meter = meter

    def slice_rule(self, rule: SecurityRule) -> List[TaintFlow]:
        adapter = RuleAdapter(self.sdg, rule)
        carriers = self.make_carrier_index(adapter)
        collector = FlowCollector(rule, self.budget)
        sources: Dict[str, StmtRef] = {}

        def on_hit(origin_id: str, hit: Hit) -> None:
            source = sources[origin_id]
            if hit.kind == "sink":
                collector.add(source, hit.stmt, hit.sink_display,
                              hit.meta.steps, hit.meta.crossing, False,
                              hit.meta.transitions)
            elif hit.kind == "store":
                # Carrier edges only: heap value flow rides the channels.
                for site, display in carriers.sinks_for_store(
                        hit.store, hit.eff_base):
                    collector.add(source, site.stmt, display,
                                  hit.meta.steps + 1, hit.meta.crossing,
                                  True, hit.meta.transitions)

        tab = Tabulator(self.sdg, adapter, on_hit, meter=self.meter,
                        skip_thread_edges=True,
                        resilience=self.resilience)
        for seed in enumerate_sources(self.sdg, rule):
            sources[seed.origin_id] = seed.stmt.ref
            if seed.call_lhs:
                tab.seed_origin(seed.origin_id, seed.stmt.ref.method,
                                seed.call_lhs)
            for arg in seed.ref_args:
                method = seed.stmt.ref.method
                for site, display in carriers.sinks_for_object(method,
                                                               arg):
                    collector.add(seed.stmt.ref, site.stmt, display, 1,
                                  None, True)
                # A by-reference source taints the object's whole state:
                # in CS terms, every heap channel of the argument's
                # abstract objects is tainted at the call's method.
                for ikey in self.direct.points_to(method, arg):
                    for fld in self.sdg.loads_by_field:
                        if fld == ANY_FIELD or fld.startswith("static:"):
                            continue
                        tab.seed_origin(seed.origin_id, method,
                                        f"@f:{fld}:{ikey}", Meta(1))
        tab.run()
        return self._collect(collector)
