"""Field-sensitive, context-sensitive Andersen's analysis with on-the-fly
call-graph construction (paper §3.1).

The solver alternates between two phases exactly as §6.1 describes:

1. **constraint adding** — pop a pending call-graph node (a method in a
   context) from the ordering policy and add inclusion constraints for
   its instructions;
2. **constraint solving** — run the difference-propagation worklist to a
   fixed point, which may discover new virtual-dispatch targets and
   therefore enqueue new pending nodes.

The ordering policy is pluggable: chaotic iteration (FIFO) or the
priority-driven scheme of §6.1.  A call-graph node budget makes the
result deliberately underapproximate, as in the paper's prioritized
configurations.

String values are invisible here: the string-carrier model (§4.2.1) has
already rewritten string manipulation into primitive ``StringOp``s, so
strings never pollute points-to sets.

This is the *optimised* kernel; the seed solver it replaced survives in
:mod:`repro.pointer.baseline` as the differential/perf baseline.  Four
constraint-graph optimisations (``docs/performance.md``) set the two
apart:

* **online cycle elimination** — copy-edge cycles are collapsed through
  the union-find in :mod:`repro.pointer.scc`; every solver structure is
  keyed by representatives and cycle members share one points-to set;
* **coalescing worklist** — a key already pending accumulates new facts
  into its pending-delta bitset instead of enqueueing another entry, so
  a key is processed once per drain with its whole accumulated delta
  (the seed enqueued one frozenset per ``add_pts`` call);
* **interned keys** — see :mod:`repro.pointer.keys`: identity-compared,
  hash-precomputed keys make the dict probes this loop lives on cheap;
* **dense bitset points-to sets** — a points-to set is one Python int
  over the dense instance-key ID space: union is ``|``, the new-facts
  diff is ``delta & ~current``, and a whole-set propagation is a single
  C-level big-int operation instead of a per-element hash loop.  Keys
  decode back to :class:`~repro.pointer.keys.InstanceKey` objects only
  at the API boundary (:meth:`PointerAnalysis.points_to`,
  :meth:`PointerAnalysis.iter_pts`) and at the watch seams that need
  per-object dispatch.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, FrozenSet, Iterable, Iterator, List, \
    Optional, Set, Tuple

from ..bounds import Budget, UNBOUNDED
from ..callgraph.graph import CallGraph, CGNode
from ..obs import DISABLED
from ..resilience import DeadlineExceeded
from ..ir import (ARRAY_CONTENTS, ArrayLoad, ArrayStore, Assign, Call, Cast,
                  ClassHierarchy, EnterCatch, Load, Method, New, NewArray,
                  Phi, Program, Return, Select, StaticLoad, StaticStore,
                  Store)
from .contexts import Context, EMPTY
from .keys import (AllocSite, FieldKey, InstanceKey, LocalKey, PointerKey,
                   ReturnKey, StaticFieldKey, decode_instance_bits,
                   encode_instance_keys)
from .ordering import ChaoticOrder, OrderingPolicy
from .policy import ContextPolicy
from .scc import UnionFind, copy_cycles

_EMPTY_FROZEN: FrozenSet[InstanceKey] = frozenset()


class PointerAnalysis:
    """The solver; results live in ``pts``, ``call_graph``.

    ``pts`` is keyed by cycle *representatives* and its values are
    **bitset ints** over the dense instance-key ID space; external
    callers should go through :meth:`points_to` / :meth:`iter_pts`,
    which normalize any key through the union-find and decode the bits
    back into :class:`InstanceKey` sets (:meth:`iter_pts_bits` exposes
    the raw representation for bitset-aware consumers such as
    :class:`~repro.pointer.heapgraph.HeapGraph`).
    """

    def __init__(self, program: Program,
                 policy: Optional[ContextPolicy] = None,
                 natives: Optional[object] = None,
                 order: Optional[OrderingPolicy] = None,
                 budget: Budget = UNBOUNDED,
                 excluded_classes: Optional[Set[str]] = None,
                 obs: Optional[object] = None,
                 resilience: Optional[object] = None) -> None:
        self.program = program
        self.hierarchy = ClassHierarchy(program)
        self.policy = policy or ContextPolicy()
        self.natives = natives
        # Note: ordering policies define __bool__ as "has pending
        # nodes", so an explicit None check is required here.
        self.order = ChaoticOrder() if order is None else order
        self.order.attach(self)
        self.budget = budget
        # Whitelisted benign classes (paper §4.2.1): calls into them are
        # never bound, so they get no call-graph nodes or constraints.
        self.excluded_classes = excluded_classes or set()
        self.call_graph = CallGraph()
        self.truncated = False          # budget cut the analysis short
        # Resilience (repro.resilience): the solver checks the
        # ``pointer.solve`` seam once per node; a tripped deadline
        # truncates the solve (partial call graph, like the node
        # budget) instead of killing the run.
        self.resilience = resilience
        self.deadline_exceeded = False

        # All of the following are keyed by cycle representatives.
        # Points-to sets are bitset ints (bit i set <=> the key may
        # point to the instance key with dense index i).
        self.pts: Dict[PointerKey, int] = {}
        # Copy successors as an insertion-ordered set (dict keys).
        self._succs: Dict[PointerKey, Dict[PointerKey, None]] = {}
        # base key -> [(field, destination local key)]
        self._load_watch: Dict[PointerKey, List[Tuple[str, PointerKey]]] = {}
        # base key -> [(field, source key)]
        self._store_watch: Dict[PointerKey, List[Tuple[str, PointerKey]]] = {}
        # receiver key -> [(caller node, call instruction)]
        self._call_watch: Dict[PointerKey, List[Tuple[CGNode, Call]]] = {}
        self._dispatched: Set[Tuple[CGNode, int, InstanceKey]] = set()
        # Coalescing worklist: a key is pending iff it has an entry in
        # _pending; facts arriving while pending OR into that bitset.
        self._pending: Dict[PointerKey, int] = {}
        self._worklist: Deque[PointerKey] = deque()
        self._scc = UnionFind()
        # Lazy cycle detection: sources of copy edges that re-delivered a
        # fully redundant delta accumulate as suspects; an SCC pass runs
        # once enough pile up (or when the worklist drains), rooted at
        # the suspects only — a cycle through a suspect edge is reachable
        # from that edge's source, so the sweep never has to touch the
        # rest of the graph.
        self._suspect_srcs: Dict[PointerKey, None] = {}
        self._lcd_checked: Set[Tuple[PointerKey, PointerKey]] = set()
        self._processed_nodes: Set[CGNode] = set()
        self.stats = {"propagations": 0, "edges": 0, "nodes_processed": 0,
                      "cycles_collapsed": 0, "keys_merged": 0,
                      "coalesced_deltas": 0, "scc_runs": 0}
        # Wall-clock seconds per solver phase (paper §6.1's alternation).
        self.phase_seconds = {"constraint_adding": 0.0,
                              "constraint_solving": 0.0}
        # Observability (repro.obs): recorded once after the fixpoint —
        # the hot propagation loop itself stays uninstrumented.
        self.obs = DISABLED if obs is None else obs
        self._worklist_peak = 0
        self._scc_seconds = 0.0
        self._solve_started = 0.0

    # ------------------------------------------------------------------ API

    def solve(self) -> None:
        """Run to completion (or to the call-graph node budget)."""
        for qname in self.program.entrypoints:
            node = self._make_node(qname, EMPTY)
            if node is not None:
                self.call_graph.entrypoints.append(node)
        clock = time.perf_counter
        self._solve_started = clock()
        resilience = self.resilience
        progress = getattr(self.obs, "progress", None)
        if progress is not None and not progress.enabled:
            progress = None
        while True:
            if self._budget_met():
                self.truncated = True
                break
            if resilience is not None:
                try:
                    resilience.check("pointer.solve",
                                     phase="pointer_analysis")
                except DeadlineExceeded:
                    # Wall-clock budget spent: stop here, keep the
                    # partial call graph (same contract as the node
                    # budget).  Injected non-deadline faults propagate
                    # to the facade's phase guard.
                    self.truncated = True
                    self.deadline_exceeded = True
                    break
            node = self.order.pop()
            if node is None:
                break
            if node in self._processed_nodes:
                continue
            self._processed_nodes.add(node)
            self.stats["nodes_processed"] += 1
            started = clock()
            self._add_constraints(node)
            added = clock()
            self._solve_constraints()
            solved = clock()
            self.phase_seconds["constraint_adding"] += added - started
            self.phase_seconds["constraint_solving"] += solved - added
            if progress is not None:
                progress.update(cg_nodes=len(self.call_graph.nodes),
                                worklist=self._worklist_peak)
        # Residual suspects below the batch threshold: collapse at the
        # end so discovered cycles are merged in the final solution (a
        # merge can re-pend owed facts, whose propagation may in turn
        # raise fresh suspects — each edge is suspected at most once, so
        # this drains in a bounded number of rounds).
        while self._suspect_srcs:
            started = clock()
            self._collapse_cycles()
            self._solve_constraints()
            self.phase_seconds["constraint_solving"] += clock() - started
        self._record_obs()

    def points_to(self, key: PointerKey) -> FrozenSet[InstanceKey]:
        """Immutable snapshot of a key's points-to set.

        Decodes the internal bitset into a fresh frozenset, so the live
        representation (shared by every member of a collapsed cycle)
        never leaks to callers.
        """
        bits = self.pts.get(self._scc.find(key), 0)
        return frozenset(decode_instance_bits(bits)) if bits \
            else _EMPTY_FROZEN

    def points_to_bits(self, key: PointerKey) -> int:
        """A key's points-to set as a raw bitset int (union over the
        dense instance-key ID space)."""
        return self.pts.get(self._scc.find(key), 0)

    def points_to_var(self, method: str, var: str,
                      context: Optional[Context] = None) -> Set[InstanceKey]:
        """Points-to set of a local, unioned over contexts if none given."""
        if context is not None:
            return set(self.points_to(LocalKey(method, context, var)))
        bits = 0
        pts_get = self.pts.get
        find = self._scc.find
        for node in self.call_graph.nodes_of_method(method):
            bits |= pts_get(find(LocalKey(method, node.context, var)), 0)
        return set(decode_instance_bits(bits))

    def points_to_var_bits(self, method: str, var: str) -> int:
        """Context-collapsed points-to set of a local as a bitset."""
        bits = 0
        pts_get = self.pts.get
        find = self._scc.find
        for node in self.call_graph.nodes_of_method(method):
            bits |= pts_get(find(LocalKey(method, node.context, var)), 0)
        return bits

    def iter_pts(self) -> Iterator[Tuple[PointerKey, Set[InstanceKey]]]:
        """(key, points-to set) for every key the solver has seen,
        including keys merged away by cycle collapsing (they yield their
        representative's set).  Sets are freshly decoded copies."""
        for key, bits in self.iter_pts_bits():
            yield key, set(decode_instance_bits(bits))

    def iter_pts_bits(self) -> Iterator[Tuple[PointerKey, int]]:
        """(key, bitset) for every key the solver has seen — the
        zero-copy view bitset-aware consumers build on."""
        yield from self.pts.items()
        find = self._scc.find
        for key in self._scc.merged_keys():
            bits = self.pts.get(find(key), 0)
            if bits:
                yield key, bits

    def representative(self, key: PointerKey) -> PointerKey:
        """The key's cycle representative (itself if never merged)."""
        return self._scc.find(key)

    # Key factories: native-method summaries build keys through these so
    # every solver's tables only ever hold its own key family (the seed
    # baseline overrides them with the original dataclass keys).

    def make_alloc(self, method: str, iid: int,
                   class_name: str) -> InstanceKey:
        return InstanceKey(AllocSite(method, iid, class_name))

    def make_local(self, method: str, context: Context,
                   var: str) -> LocalKey:
        return LocalKey(method, context, var)

    def make_field(self, instance: InstanceKey, fld: str) -> FieldKey:
        return FieldKey(instance, fld)

    # --------------------------------------------------------------- helpers

    def _budget_met(self) -> bool:
        limit = self.budget.max_cg_nodes
        return limit is not None and self.call_graph.node_count() >= limit

    def _make_node(self, qname: str, context: Context) -> Optional[CGNode]:
        node = CGNode(qname, context)
        if self.call_graph.add_node(node):
            method = self.program.lookup_method(qname)
            if method is not None and not method.is_native:
                self.order.on_node_created(node)
        return node

    def add_pts(self, key: PointerKey, ikeys: Iterable[InstanceKey]) -> bool:
        """Add instance keys to a pointer key, scheduling propagation.

        The iterable-of-keys form is the external API (native-method
        summaries build on it); internally everything rides on
        :meth:`add_pts_bits`."""
        return self.add_pts_bits(key, encode_instance_keys(ikeys))

    def add_pts_bits(self, key: PointerKey, bits: int) -> bool:
        """Bitset core of :meth:`add_pts`: OR ``bits`` into the key's
        set, scheduling propagation of the genuinely new bits.

        Returns whether anything new arrived (the lazy-cycle-detection
        trigger).  New facts coalesce into the key's pending-delta
        bitset, so a key occupies at most one worklist slot."""
        key = self._scc.find(key)
        current = self.pts.get(key, 0)
        new = bits & ~current
        if not new:
            return False
        self.pts[key] = current | new
        pending = self._pending.get(key)
        if pending is None:
            self._pending[key] = new
            self._worklist.append(key)
        else:
            self._pending[key] = pending | new
            self.stats["coalesced_deltas"] += 1
        return True

    def add_copy_edge(self, src: PointerKey, dst: PointerKey) -> None:
        """Add a subset edge src ⊆ dst and flush current contents."""
        find = self._scc.find
        src, dst = find(src), find(dst)
        if src is dst:
            return
        succs = self._succs.get(src)
        if succs is None:
            succs = self._succs[src] = {}
        elif dst in succs:
            return
        succs[dst] = None
        self.stats["edges"] += 1
        existing = self.pts.get(src, 0)
        if existing:
            self.add_pts_bits(dst, existing)

    def register_call_watch(self, key: PointerKey, node: CGNode,
                            call: Call) -> None:
        """Watch ``key`` for new receivers of ``call``, dispatching the
        already-known ones (used by native-method summaries too)."""
        key = self._scc.find(key)
        self._call_watch.setdefault(key, []).append((node, call))
        # Decoding yields a fresh list, so dispatching may grow the
        # live set without invalidating this snapshot (coalesced facts
        # are delivered later through the watch we just registered).
        for ikey in decode_instance_bits(self.pts.get(key, 0)):
            self._dispatch(node, call, ikey)

    # ------------------------------------------------------ constraint adding

    def _local(self, node: CGNode, var: str) -> LocalKey:
        return LocalKey(node.method, node.context, var)

    def _add_constraints(self, node: CGNode) -> None:
        method = self.program.lookup_method(node.method)
        if method is None or method.is_native:
            return
        ret_key = ReturnKey(node.method, node.context)
        for instr in method.instructions():
            if isinstance(instr, New):
                self._alloc(node, method, instr.iid, instr.class_name,
                            instr.lhs)
            elif isinstance(instr, NewArray):
                self._alloc(node, method, instr.iid,
                            f"{instr.element_type}[]", instr.lhs)
            elif isinstance(instr, EnterCatch):
                # A caught exception is a fresh abstract object: thrown
                # values are not routed (see repro.lang.lower); TAJ instead
                # treats the catch itself as producing the object whose
                # message is a taint source (§4.1.2).
                self._alloc(node, method, instr.iid, instr.exc_type,
                            instr.lhs)
            elif isinstance(instr, Assign):
                self.add_copy_edge(self._local(node, instr.rhs),
                                   self._local(node, instr.lhs))
            elif isinstance(instr, Cast):
                self.add_copy_edge(self._local(node, instr.value),
                                   self._local(node, instr.lhs))
            elif isinstance(instr, Phi):
                lhs = self._local(node, instr.lhs)
                for operand in instr.operands.values():
                    self.add_copy_edge(self._local(node, operand), lhs)
            elif isinstance(instr, Select):
                lhs = self._local(node, instr.lhs)
                for operand in instr.args:
                    self.add_copy_edge(self._local(node, operand), lhs)
            elif isinstance(instr, Load):
                self._watch_load(self._local(node, instr.base), instr.fld,
                                 self._local(node, instr.lhs))
            elif isinstance(instr, Store):
                self._watch_store(self._local(node, instr.base), instr.fld,
                                  self._local(node, instr.rhs))
            elif isinstance(instr, ArrayLoad):
                self._watch_load(self._local(node, instr.base),
                                 ARRAY_CONTENTS,
                                 self._local(node, instr.lhs))
            elif isinstance(instr, ArrayStore):
                self._watch_store(self._local(node, instr.base),
                                  ARRAY_CONTENTS,
                                  self._local(node, instr.rhs))
            elif isinstance(instr, StaticLoad):
                self.add_copy_edge(self._static_key(instr.class_name,
                                                    instr.fld),
                                   self._local(node, instr.lhs))
            elif isinstance(instr, StaticStore):
                self.add_copy_edge(self._local(node, instr.rhs),
                                   self._static_key(instr.class_name,
                                                    instr.fld))
            elif isinstance(instr, Return):
                if instr.value:
                    self.add_copy_edge(self._local(node, instr.value),
                                       ret_key)
            elif isinstance(instr, Call):
                self._add_call(node, instr)

    def _alloc(self, node: CGNode, method: Method, iid: int,
               class_name: str, lhs: str) -> None:
        heap_ctx = self.policy.heap_context(method, node.context)
        ikey = InstanceKey(AllocSite(node.method, iid, class_name), heap_ctx)
        self.add_pts_bits(self._local(node, lhs), ikey.bit)

    def _static_key(self, class_name: str, fld: str) -> StaticFieldKey:
        owner = self.hierarchy.resolve_field_owner(class_name, fld)
        return StaticFieldKey(owner or class_name, fld)

    def _watch_load(self, base: PointerKey, fld: str,
                    dst: PointerKey) -> None:
        base = self._scc.find(base)
        self._load_watch.setdefault(base, []).append((fld, dst))
        for ikey in decode_instance_bits(self.pts.get(base, 0)):
            self.add_copy_edge(FieldKey(ikey, fld), dst)

    def _watch_store(self, base: PointerKey, fld: str,
                     src: PointerKey) -> None:
        base = self._scc.find(base)
        self._store_watch.setdefault(base, []).append((fld, src))
        for ikey in decode_instance_bits(self.pts.get(base, 0)):
            self.add_copy_edge(src, FieldKey(ikey, fld))

    def _add_call(self, node: CGNode, call: Call) -> None:
        if call.kind == "static":
            callee = self.hierarchy.lookup_static(
                call.class_name, call.method_name, call.arity)
            if callee is not None:
                self._bind_call(node, call, callee, None)
            return
        # virtual / special: dispatch per receiver instance key.
        if call.receiver is None:
            return
        self.register_call_watch(self._local(node, call.receiver), node,
                                 call)

    # ------------------------------------------------------ call processing

    def _dispatch(self, node: CGNode, call: Call,
                  receiver: InstanceKey) -> None:
        token = (node, call.iid, receiver)
        if token in self._dispatched:
            return
        self._dispatched.add(token)
        if call.kind == "special":
            callee = self.hierarchy.lookup_static(
                call.class_name, call.method_name, call.arity)
        else:
            callee = self.hierarchy.dispatch(
                receiver.class_name, call.method_name, call.arity)
        if callee is not None:
            self._bind_call(node, call, callee, receiver)

    def _bind_call(self, node: CGNode, call: Call, callee: Method,
                   receiver: Optional[InstanceKey]) -> None:
        if callee.class_name in self.excluded_classes:
            return
        context = self.policy.callee_context(
            node.method, node.context, call, callee, receiver)
        if callee.is_native:
            target = CGNode(callee.qname, context)
            self.call_graph.add_node(target)
            self.call_graph.add_edge(node, call.iid, target)
            if self.natives is not None:
                self.natives.apply(self, node, call, callee, receiver)
            return
        target = self._make_node(callee.qname, context)
        if target is None:
            return
        if self.call_graph.add_edge(node, call.iid, target):
            self.order.on_edge(node, target)
        if receiver is not None and not callee.is_static:
            self.add_pts_bits(LocalKey(callee.qname, context, "this"),
                              receiver.bit)
        for actual, param in zip(call.args, callee.param_names()):
            self.add_copy_edge(self._local(node, actual),
                               LocalKey(callee.qname, context, param))
        if call.lhs:
            self.add_copy_edge(ReturnKey(callee.qname, context),
                               self._local(node, call.lhs))

    # ------------------------------------------------------ constraint solving

    def _solve_constraints(self) -> None:
        # Worklist high-water mark, sampled once per drain (the deepest
        # point is right after a node's constraints were added).
        if len(self._worklist) > self._worklist_peak:
            self._worklist_peak = len(self._worklist)
        find = self._scc.find
        # Fast-path probe: a key is merged iff it has a parent entry, so
        # the common (cycle-free) case pays one C-level dict get instead
        # of a Python call into find().
        merged_probe = self._scc._parent.get
        worklist = self._worklist
        pending = self._pending
        all_succs = self._succs
        load_watch = self._load_watch
        store_watch = self._store_watch
        call_watch = self._call_watch
        suspects = self._suspect_srcs
        lcd_batch = self.LCD_BATCH
        stats = self.stats
        add_pts_bits = self.add_pts_bits
        add_copy_edge = self.add_copy_edge
        checked = self._lcd_checked
        decode = decode_instance_bits
        while worklist:
            key = worklist.popleft()
            delta = pending.pop(key, None)
            if delta is None:
                continue        # merged away or already drained
            stats["propagations"] += 1
            succs = all_succs.get(key)
            if succs:
                # add_pts_bits never touches _succs: iterate directly.
                # The whole delta moves per edge as one big-int OR.
                for dst in succs:
                    if merged_probe(dst) is not None:
                        dst = find(dst)
                        if dst is key:
                            continue
                    if not add_pts_bits(dst, delta):
                        # Fully redundant re-delivery: this edge may
                        # close a copy cycle.  Check each edge once.
                        edge = (key, dst)
                        if edge not in checked:
                            checked.add(edge)
                            suspects[key] = None
            # The field/call watch seams need per-object dispatch, so
            # the delta is decoded once, lazily, and shared by all
            # three watch kinds.
            delta_keys = None
            watches = load_watch.get(key)
            if watches:
                delta_keys = decode(delta)
                for fld, dst in watches:
                    for ikey in delta_keys:
                        add_copy_edge(FieldKey(ikey, fld), dst)
            watches = store_watch.get(key)
            if watches:
                if delta_keys is None:
                    delta_keys = decode(delta)
                for fld, src in watches:
                    for ikey in delta_keys:
                        add_copy_edge(src, FieldKey(ikey, fld))
            watches = call_watch.get(key)
            if watches:
                if delta_keys is None:
                    delta_keys = decode(delta)
                # Snapshot: dispatching can register further watchers.
                for caller_node, call in list(watches):
                    for ikey in delta_keys:
                        self._dispatch(caller_node, call, ikey)
            if len(suspects) >= lcd_batch:
                self._collapse_cycles()

    # ------------------------------------------------------ cycle elimination

    # Suspect edges tolerated before a mid-drain SCC pass runs.
    LCD_BATCH = 32

    def _collapse_cycles(self) -> None:
        """Run SCC detection rooted at the suspect edges and merge each
        cycle found.  Rooting at suspects keeps the sweep proportional
        to the subgraph they can reach, not the whole copy graph."""
        scc_started = time.perf_counter()
        find = self._scc.find
        roots = [find(k) for k in self._suspect_srcs]
        self._suspect_srcs.clear()
        self.stats["scc_runs"] += 1
        for comp in copy_cycles(self._succs, find, roots):
            self.stats["cycles_collapsed"] += 1
            winner = comp[0]
            for loser in comp[1:]:
                winner_root, loser_root = self._scc.union(winner, loser)
                if winner_root is not loser_root:
                    self._merge_into(winner_root, loser_root)
                winner = winner_root
        self._scc_seconds += time.perf_counter() - scc_started

    # ------------------------------------------------------ observability

    def _record_obs(self) -> None:
        """Publish kernel counters, sub-phase timers, and distribution
        histograms to the observability bundle (one shot, post-solve)."""
        obs = self.obs
        if not obs.enabled:
            return
        metrics = obs.metrics
        metrics.merge_counters(self.stats, prefix="pointer.")
        for phase, seconds in self.phase_seconds.items():
            metrics.record_time(f"pointer.{phase}", seconds)
        metrics.record_time("pointer.scc_collapse", self._scc_seconds)
        metrics.gauge_max("pointer.worklist_depth_peak",
                          self._worklist_peak)
        metrics.record_values("pointer.pts_set_size",
                              [bits.bit_count()
                               for bits in self.pts.values()])
        metrics.gauge("pointer.pts_keys", len(self.pts))
        for name, value in self.call_graph.size_stats().items():
            metrics.gauge(f"callgraph.{name}", value)
        # Synthetic sub-phase spans: the alternation is measured inline
        # (a span per pended node would swamp the trace), so the
        # aggregates are emitted as pre-timed children laid end to end
        # under the open phase.pointer_analysis span.
        start = self._solve_started
        adding = self.phase_seconds["constraint_adding"]
        solving = self.phase_seconds["constraint_solving"]
        tracer = obs.tracer
        tracer.add_completed(
            "pointer.constraint_adding", start, adding,
            {"nodes_processed": self.stats["nodes_processed"],
             "edges": self.stats["edges"]})
        tracer.add_completed(
            "pointer.constraint_solving", start + adding, solving,
            {"propagations": self.stats["propagations"],
             "coalesced_deltas": self.stats["coalesced_deltas"]})
        if self._scc_seconds or self.stats["scc_runs"]:
            tracer.add_completed(
                "pointer.scc_collapse", start + adding + solving,
                self._scc_seconds,
                {"scc_runs": self.stats["scc_runs"],
                 "cycles_collapsed": self.stats["cycles_collapsed"],
                 "keys_merged": self.stats["keys_merged"]})

    def _merge_into(self, winner: PointerKey, loser: PointerKey) -> None:
        """Fold the loser's solver state into the winner (already
        unioned in the union-find)."""
        self.stats["keys_merged"] += 1
        find = self._scc.find
        loser_pts = self.pts.pop(loser, 0)
        loser_pending = self._pending.pop(loser, 0)
        winner_pts = self.pts.get(winner, 0)
        # Facts one side has propagated but the other has not: both
        # successor lists are about to be unified, so everything either
        # side might still owe its (old) successors must be re-pending.
        owed = (winner_pts ^ loser_pts) | loser_pending
        self.pts[winner] = winner_pts | loser_pts
        if owed:
            pending = self._pending.get(winner)
            if pending is None:
                self._pending[winner] = owed
                self._worklist.append(winner)
            else:
                self._pending[winner] = pending | owed
        # Unify copy successors, dropping self-loops and duplicates.
        merged: Dict[PointerKey, None] = {}
        for dst in (*self._succs.pop(winner, ()),
                    *self._succs.pop(loser, ())):
            dst = find(dst)
            if dst is not winner:
                merged[dst] = None
        if merged:
            self._succs[winner] = merged
        # Concatenate watch lists; duplicates are deduplicated
        # downstream (edge set membership / _dispatched tokens).
        for watch in (self._load_watch, self._store_watch,
                      self._call_watch):
            tail = watch.pop(loser, None)
            if tail:
                head = watch.get(winner)
                if head is None:
                    watch[winner] = tail
                else:
                    head.extend(tail)
