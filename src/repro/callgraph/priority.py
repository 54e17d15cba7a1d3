"""Priority-driven call-graph construction (paper §6.1).

The ordering policy below implements the paper's scheme verbatim:

* **initial-assignment rule** — a new node gets priority 0 if it is a
  source node (its method invokes a taint source), else ``maxNodes``;
* when a node *n* is dequeued, the neighbourhood ``T_n`` is built from
  (1) its call-graph predecessors and successors and (2) nodes whose
  methods contain a load matching a store in *n*'s method (the two ends
  of a would-be direct HSDG edge, approximated by field-name matching
  while points-to information is still being built);
* **update rule** — ``π(t) := min(π(t), π(n)+1)`` for every ``t ∈ T_n``,
  propagated through neighbourhoods to a fixed point;
* the queue always yields a node with the smallest priority value.

The effect is the paper's *locality-of-taint* bias: constraint adding
starts at taint sources and grows outward, so under a node budget the
analyzed region is the one most likely to carry tainted flows.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..ir import ArrayLoad, ArrayStore, Call, Load, Method, Store
from .graph import CallGraph, CGNode

from ..pointer.ordering import OrderingPolicy


def method_store_fields(method: Method) -> Set[str]:
    fields: Set[str] = set()
    for instr in method.instructions():
        if isinstance(instr, Store):
            fields.add(instr.fld)
        elif isinstance(instr, ArrayStore):
            fields.add("@elems")
    return fields


def method_load_fields(method: Method) -> Set[str]:
    fields: Set[str] = set()
    for instr in method.instructions():
        if isinstance(instr, Load):
            fields.add(instr.fld)
        elif isinstance(instr, ArrayLoad):
            fields.add("@elems")
    return fields


class PriorityOrder(OrderingPolicy):
    """The §6.1 priority queue over pending call-graph nodes."""

    def __init__(self, source_methods: Set[str], max_nodes: int) -> None:
        """``source_methods`` — display names ("Class.name") of taint
        sources; a node is a *source node* if its method calls one.
        ``max_nodes`` — the call-graph budget, also the default priority.
        """
        self.source_methods = source_methods
        self.max_nodes = max_nodes
        self.priority: Dict[CGNode, int] = {}
        self._heap: List[Tuple[int, int, CGNode]] = []
        self._seq = 0
        self._pending: Set[CGNode] = set()
        self._store_fields: Dict[str, Set[str]] = {}
        self._load_fields: Dict[str, Set[str]] = {}
        self._is_source_node: Dict[str, bool] = {}
        # field name -> method qnames containing a load of that field
        self._loaders: Dict[str, Set[str]] = {}

    def attach(self, lookup_method: Callable[[str], Optional[Method]],
               call_graph: CallGraph) -> None:
        self._method = lookup_method
        self._call_graph = call_graph

    # -- classification ------------------------------------------------------

    def _source_node(self, qname: str) -> bool:
        cached = self._is_source_node.get(qname)
        if cached is not None:
            return cached
        method = self._method(qname)
        result = False
        if method is not None and not method.is_native:
            for instr in method.instructions():
                if isinstance(instr, Call) and \
                        self._call_targets_source(instr):
                    result = True
                    break
        self._is_source_node[qname] = result
        return result

    def _call_targets_source(self, call: Call) -> bool:
        if call.class_name and \
                f"{call.class_name}.{call.method_name}" in \
                self.source_methods:
            return True
        # Virtual calls with unknown static receiver class: match on the
        # method name component alone.
        return any(s.rsplit(".", 1)[-1] == call.method_name
                   for s in self.source_methods)

    def _fields(self, qname: str) -> Tuple[Set[str], Set[str]]:
        if qname not in self._store_fields:
            method = self._method(qname)
            if method is None or method.is_native:
                self._store_fields[qname] = set()
                self._load_fields[qname] = set()
            else:
                self._store_fields[qname] = method_store_fields(method)
                self._load_fields[qname] = method_load_fields(method)
            for fld in self._load_fields[qname]:
                self._loaders.setdefault(fld, set()).add(qname)
        return self._store_fields[qname], self._load_fields[qname]

    # -- OrderingPolicy ---------------------------------------------------------

    def on_node_created(self, node: CGNode) -> None:
        # Initial-assignment rule.
        if node not in self.priority:
            self.priority[node] = 0 if self._source_node(node.method) \
                else self.max_nodes
        self._fields(node.method)  # index its fields for matching
        self._pending.add(node)
        self._push(node)

    def _push(self, node: CGNode) -> None:
        heapq.heappush(self._heap,
                       (self.priority[node], self._seq, node))
        self._seq += 1

    def on_edge(self, caller: CGNode, callee: CGNode) -> None:
        """Propagate locality along a new call edge immediately: the
        callee is a neighbour of the caller, so the update rule
        π(callee) := min(π(callee), π(caller)+1) applies as soon as the
        edge exists (callees are created after their caller was
        dequeued, so waiting for the next dequeue would never see them).
        """
        base = self.priority.get(caller, self.max_nodes)
        self._ensure_priority(callee)
        new = min(self.priority[callee], base + 1)
        if new < self.priority[callee]:
            self.priority[callee] = new
            if callee in self._pending:
                self._push(callee)
            self._update_neighbourhood(callee)

    def _ensure_priority(self, node: CGNode) -> None:
        if node not in self.priority:
            self.priority[node] = 0 if self._source_node(node.method) \
                else self.max_nodes

    def pop(self) -> Optional[CGNode]:
        while self._heap:
            prio, _, node = heapq.heappop(self._heap)
            if node not in self._pending:
                continue  # already popped via a fresher entry
            if prio != self.priority.get(node, self.max_nodes):
                continue  # stale entry; a lower-priority one exists
            self._pending.discard(node)
            self._update_neighbourhood(node)
            return node
        return None

    def __bool__(self) -> bool:
        return bool(self._pending)

    # -- §6.1 steps 2-5 -----------------------------------------------------------

    def _neighbourhood(self, node: CGNode) -> Set[CGNode]:
        cg = self._call_graph
        out: Set[CGNode] = set(cg.neighbors(node))
        stores, _ = self._fields(node.method)
        matched_methods: Set[str] = set()
        for fld in stores:
            matched_methods |= self._loaders.get(fld, set())
        for qname in matched_methods:
            out.update(cg.nodes_of_method(qname))
        out.discard(node)
        return out

    def _update_neighbourhood(self, node: CGNode) -> None:
        worklist = [node]
        while worklist:
            cur = worklist.pop()
            base = self.priority.get(cur, self.max_nodes)
            for t in self._neighbourhood(cur):
                if t not in self.priority:
                    self.priority[t] = 0 if self._source_node(t.method) \
                        else self.max_nodes
                new = min(self.priority[t], base + 1)
                if new < self.priority[t]:
                    self.priority[t] = new
                    if t in self._pending:
                        self._push(t)
                    worklist.append(t)
