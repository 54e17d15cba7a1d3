"""Context-insensitive (CI) thin slicing — the cheap baseline (§3.2, [33]).

Same thin-slice graph as the hybrid algorithm (local def-use + direct
heap edges + carrier edges), but interprocedural flow is plain graph
reachability: call and return edges are ordinary edges with **no
call/return matching**.  A value entering a shared helper from one call
site flows out to *every* call site — the context conflation that gives
CI its higher false-positive rate (accuracy 0.22 in the paper's
evaluation, versus 0.35 hybrid and 0.54 CS).

CI is sound (like the hybrid algorithm, and unlike CS on multithreaded
code), so in the evaluation both agree on the true positives.

Each source seed gets its own breadth-first search, because attribution
matters: a flow names its source, and the §6.2.1 heap-transition budget
counts per seed.  Every seed of a rule walks the same graph, though, and
on library-heavy code each one walks the whole shared library again.  So
the slicer compiles the graph once per rule and replays it per seed
(Sawja's lesson, arXiv 1007.3353: pay once for a compact integer form,
then keep the hot loop cheap):

* a fact ``(method, var)`` gets a dense int id the first time it is
  seen;
* the first time any seed pops a fact, it is compiled into its *ops*:
  sink hits ``(sink stmt, display, Δlength, via carrier)`` and
  segments of pushes ``(target id, Δsteps, crossing override,
  Δtransitions)``.  Under a heap budget each store's loads form their
  own *gated* segment, charged against the seed's budget;
* every later pop of the fact, by any seed, replays those ops over
  plain ints and tuples — no ``Fact``, no ``Meta`` and no rule matching
  in the loop.

A fact keeps the metadata of whichever push reaches it first, so the
pushes keep the order of the graph walk: local edges (a ``RET`` edge
expands to every caller's lhs), then each store's loads, then each call
site's descents and native-return push.  Sink hits only feed the
collector, which pushes never touch, so they replay first, in their own
walk order (each store's carrier sinks, then the call-site sinks).

Compilation is lazy — only facts some seed reaches — and the compiled
graph is dropped when :meth:`CISlicer.slice_rule` returns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir import StringOp
from ..sdg.nodes import Fact, RET, Stmt, StmtRef
from ..sdg.tabulation import RuleAdapter
from ..taint.flows import TaintFlow
from ..taint.rules import SecurityRule
from .base import FlowCollector, Slicer, SourceSeed, enumerate_sources

# (sink stmt, sink display, Δlength, via carrier)
SinkHit = Tuple[Stmt, str, int, bool]
# (target id, Δsteps, crossing override, Δtransitions)
Push = Tuple[int, int, Optional[StmtRef], int]
# (gated, pushes): a gated segment is one store's loads under a budget
Segment = Tuple[bool, Tuple[Push, ...]]
Ops = Tuple[Tuple[SinkHit, ...], Tuple[Segment, ...]]


class _RuleGraph:
    """One rule's thin-slice graph, compiled fact by fact on demand."""

    def __init__(self, slicer: "CISlicer", adapter: RuleAdapter,
                 carriers) -> None:
        self.slicer = slicer
        self.adapter = adapter
        self.carriers = carriers
        self.sanitizers = adapter.rule.sanitizers
        self.gated = slicer.budget.max_heap_transitions is not None
        self.ids: Dict[Tuple[str, str], int] = {}
        self.facts: List[Tuple[str, str]] = []
        # fact id -> its ops, None until the fact is first popped
        self.ops: List[Optional[Ops]] = []
        self.compiled = 0

    def fact_id(self, method: str, var: str) -> int:
        key = (method, var)
        fid = self.ids.get(key)
        if fid is None:
            fid = self.ids[key] = len(self.facts)
            self.facts.append(key)
            self.ops.append(None)
        return fid

    def compile(self, fid: int) -> Ops:
        slicer = self.slicer
        sdg = slicer.sdg
        fact_id = self.fact_id
        method, var = self.facts[fid]
        hits: List[SinkHit] = []
        segments: List[Segment] = []
        pushes: List[Push] = []
        for edge in sdg.succs_of(Fact(method, var)):
            instr = edge.stmt.instr
            if isinstance(instr, StringOp) and \
                    instr.method in self.sanitizers:
                continue
            if edge.dst == RET:
                # Context-insensitive return: flow to EVERY caller.
                for site in sdg.callers_of.get(method, []):
                    if site.call.lhs:
                        pushes.append((fact_id(site.stmt.method,
                                               site.call.lhs),
                                       1, None, 0))
            else:
                pushes.append((fact_id(method, edge.dst), 1, None, 0))
        for store in sdg.stores_using(method, var):
            for site, display in self.carriers.sinks_for_store(store):
                hits.append((site.stmt, display, 2, True))
            loads: List[Push] = []
            for load in slicer.direct.loads_for_store(store):
                crossing = None
                if store.stmt.in_application and \
                        not load.stmt.in_application:
                    crossing = store.stmt.ref
                loads.append((fact_id(load.stmt.ref.method, load.lhs),
                              2, crossing, 1))
            if self.gated:
                # Even a store with no loads checks the budget: that
                # check alone marks the slice truncated.
                if pushes:
                    segments.append((False, tuple(pushes)))
                    pushes = []
                segments.append((True, tuple(loads)))
            else:
                pushes.extend(loads)
        for site, positions in sdg.calls_using(method, var):
            vulnerable, sanitizer, sink_display = \
                self.adapter.classify(site)
            if sink_display is not None:
                if vulnerable == () or any(
                        p in vulnerable for p in positions if p >= 0):
                    hits.append((site.stmt, sink_display, 1, False))
            if sanitizer or sink_display is not None:
                continue
            descended = False
            # Once one target leaves the application, the crossing
            # sticks for the site's later targets too.
            crossing_at_call = None
            for target in site.targets:
                if site.stmt.in_application and \
                        not slicer._is_app(target):
                    crossing_at_call = site.stmt.ref
                for actual, formal in sdg.bindings(site, target):
                    if actual != var:
                        continue
                    descended = True
                    pushes.append((fact_id(target, formal), 1,
                                   crossing_at_call, 0))
            if not descended and site.native_targets and \
                    site.call.lhs and var != site.call.receiver:
                pushes.append((fact_id(method, site.call.lhs), 1, None, 0))
        if pushes:
            segments.append((False, tuple(pushes)))
        ops = (tuple(hits), tuple(segments))
        self.ops[fid] = ops
        self.compiled += 1
        return ops


class CISlicer(Slicer):
    """Flow-insensitive/context-insensitive closure over the full graph."""

    name = "ci"

    def slice_rule(self, rule: SecurityRule) -> List[TaintFlow]:
        adapter = RuleAdapter(self.sdg, rule)
        graph = _RuleGraph(self, adapter, self.make_carrier_index(adapter))
        collector = FlowCollector(rule, self.budget)
        visits = 0
        for seed in enumerate_sources(self.sdg, rule):
            visits += self._replay(seed, graph, collector)
        self.rule_attrs = {"facts": graph.compiled, "visits": visits}
        return self._collect(collector)

    def _replay(self, seed: SourceSeed, graph: _RuleGraph,
                collector: FlowCollector) -> int:
        """One seed's BFS over the compiled graph; returns the number of
        facts it visited."""
        source = seed.stmt.ref
        fact_id = graph.fact_id
        visited: Set[int] = set()
        # Work items (fact id, steps, crossing, transitions).  The list
        # is the FIFO queue: iterating it sees items appended meanwhile.
        work: List[Tuple[int, int, Optional[StmtRef], int]] = []
        if seed.call_lhs:
            fid = fact_id(source.method, seed.call_lhs)
            visited.add(fid)
            work.append((fid, 0, None, 0))
        for arg in seed.ref_args:
            for site, display in graph.carriers.sinks_for_object(
                    source.method, arg):
                collector.add(source, site.stmt, display, 1, None, True)
            # By-reference loads are not charged to the heap budget.
            for load in self.direct.loads_for_tainted_object(source.method,
                                                             arg):
                fid = fact_id(load.stmt.ref.method, load.lhs)
                if fid not in visited:
                    visited.add(fid)
                    work.append((fid, 1, None, 1))

        limit = self.budget.max_heap_transitions
        heap_transitions = 0
        ops_of = graph.ops
        compile_fact = graph.compile
        add = collector.add
        visit = visited.add
        push = work.append
        check = self.resilience.check if self.resilience is not None \
            else None
        for fid, steps, crossing, transitions in work:
            if check is not None:
                # Cooperative deadline / fault seam, one per BFS pop
                # (the CI analogue of the tabulation.step seam).
                check("ci.step", phase="taint")
            ops = ops_of[fid]
            if ops is None:
                ops = compile_fact(fid)
            hits, segments = ops
            for stmt, display, dlength, via_carrier in hits:
                add(source, stmt, display, steps + dlength, crossing,
                    via_carrier, transitions)
            for gated, pushes in segments:
                if gated:
                    if heap_transitions >= limit:
                        self.truncated = True
                        continue
                    if pushes:
                        heap_transitions += 1
                for target, dsteps, override, dtransitions in pushes:
                    if target not in visited:
                        visit(target)
                        push((target, steps + dsteps,
                              crossing if override is None else override,
                              transitions + dtransitions))
        return len(visited)

    def _is_app(self, qname: str) -> bool:
        method = self.sdg.program.lookup_method(qname)
        return bool(method) and \
            self.sdg.program.is_application_method(method) and \
            not method.is_synthetic
