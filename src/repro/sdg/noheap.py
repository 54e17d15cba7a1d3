"""The no-heap SDG, realized as a value-flow graph (VFG).

"A no-heap SDG [is] an SDG that elides all control- and data-dependence
edges reflecting flow through heap locations" (paper §3.2).  Local flow
is SSA def-use (flow-sensitive by construction); interprocedural flow is
parameter/return binding along the (context-collapsed) call graph, with
context sensitivity recovered later by RHS tabulation.

Static fields are the one exception to "no heap": they need no aliasing,
so static store→load edges are kept as pseudo-heap edges resolved by
field identity (exposed through the same load/store indexes the HSDG
uses for instance fields).

The builder also prepares every index the taint traversal needs:

* per-method local value edges, tagged with the mediating statement;
* call sites with resolved targets and value bindings;
* store/load sites grouped by field (for direct HSDG edges);
* per-method maps from a variable to the statements using it as a store
  value or as a call argument (for sink detection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..callgraph.graph import CallGraph
from ..ir import (ARRAY_CONTENTS, ArrayLoad, ArrayStore, Assign, BinOp, Call,
                  Cast, Load, Method, Phi, Program, Return, Select, StaticLoad,
                  StaticStore, Store, StringOp, UnOp)
from .nodes import Fact, RET, Stmt, StmtRef

# Field marker for by-reference sources that taint an object's entire
# internal state (paper footnote 2); matches any field at aliased bases.
ANY_FIELD = "@any"


@dataclass
class LocalEdge:
    """A local def-use edge ``src -> dst`` mediated by ``stmt``."""

    dst: str
    stmt: Stmt


@dataclass
class CallSite:
    """A call statement with its resolved targets."""

    stmt: Stmt
    call: Call
    targets: List[str]            # callee method qnames with bodies
    native_targets: List[str]     # callee display names without bodies

    @property
    def key(self) -> Tuple[str, int]:
        return (self.stmt.ref.method, self.stmt.ref.iid)


@dataclass
class StoreSite:
    """A store statement: ``base.fld = value`` (or static / array)."""

    stmt: Stmt
    base: Optional[str]           # None for static stores
    fld: str
    value: str


@dataclass
class LoadSite:
    """A load statement: ``lhs = base.fld`` (or static / array)."""

    stmt: Stmt
    base: Optional[str]
    fld: str
    lhs: str


class NoHeapSDG:
    """VFG + indexes over the call-graph-reachable part of a program."""

    def __init__(self, program: Program, call_graph: CallGraph) -> None:
        self.program = program
        self.call_graph = call_graph
        # (method, var) -> outgoing local edges.
        self.local_succs: Dict[Fact, List[LocalEdge]] = {}
        # method -> var -> call sites using the var as argument/receiver
        # (with the positions it occupies).
        self.arg_uses: Dict[str, Dict[str, List[Tuple[CallSite,
                                                      List[int]]]]] = {}
        # method -> var -> store sites using it as the stored value.
        self.store_uses: Dict[str, Dict[str, List[StoreSite]]] = {}
        # field -> load sites (all reachable methods).
        self.loads_by_field: Dict[str, List[LoadSite]] = {}
        # field -> store sites.
        self.stores_by_field: Dict[str, List[StoreSite]] = {}
        # method -> its call sites.
        self.call_sites: Dict[str, List[CallSite]] = {}
        # method -> statements (for lookup by iid).
        self.stmts: Dict[StmtRef, Stmt] = {}
        # callee method qname -> call sites targeting it.
        self.callers_of: Dict[str, List[CallSite]] = {}
        # Call-site targets resolved from the call graph, context-collapsed.
        self._site_targets: Dict[Tuple[str, int], Set[str]] = {}
        self._build_site_targets()
        for qname in sorted(self._reachable_methods()):
            method = program.lookup_method(qname)
            if method is not None and not method.is_native:
                self._index_method(method)

    # -- construction -----------------------------------------------------------

    def _reachable_methods(self) -> Set[str]:
        return self.call_graph.reachable_methods() | \
            set(self.program.entrypoints)

    def _build_site_targets(self) -> None:
        for edge in self.call_graph.edges:
            self._site_targets.setdefault(
                (edge.caller.method, edge.call_iid), set()).add(
                    edge.callee.method)

    def _is_app(self, method: Method) -> bool:
        return self.program.is_application_method(method) and \
            not method.is_synthetic

    def _index_method(self, method: Method) -> None:
        qname = method.qname
        in_app = self._is_app(method)
        self.call_sites.setdefault(qname, [])
        self.arg_uses.setdefault(qname, {})
        self.store_uses.setdefault(qname, {})
        for instr in method.instructions():
            stmt = Stmt(StmtRef(qname, instr.iid), instr, in_app)
            self.stmts[stmt.ref] = stmt
            if isinstance(instr, (Assign, Cast, BinOp, UnOp, StringOp,
                                  Phi, Select)):
                defs = instr.defs()
                if defs:
                    for use in instr.value_uses():
                        self._local_edge(qname, use, defs[0], stmt)
            elif isinstance(instr, Return):
                if instr.value:
                    self._local_edge(qname, instr.value, RET, stmt)
            elif isinstance(instr, (Store, ArrayStore)):
                fld = instr.fld if isinstance(instr, Store) else \
                    ARRAY_CONTENTS
                site = StoreSite(stmt, instr.base, fld, instr.rhs)
                self.store_uses[qname].setdefault(instr.rhs, []).append(site)
                self.stores_by_field.setdefault(fld, []).append(site)
            elif isinstance(instr, StaticStore):
                fld = f"static:{instr.class_name}.{instr.fld}"
                site = StoreSite(stmt, None, fld, instr.rhs)
                self.store_uses[qname].setdefault(instr.rhs, []).append(site)
                self.stores_by_field.setdefault(fld, []).append(site)
            elif isinstance(instr, (Load, ArrayLoad)):
                fld = instr.fld if isinstance(instr, Load) else \
                    ARRAY_CONTENTS
                self.loads_by_field.setdefault(fld, []).append(
                    LoadSite(stmt, instr.base, fld, instr.lhs))
            elif isinstance(instr, StaticLoad):
                fld = f"static:{instr.class_name}.{instr.fld}"
                self.loads_by_field.setdefault(fld, []).append(
                    LoadSite(stmt, None, fld, instr.lhs))
            elif isinstance(instr, Call):
                self._index_call(method, instr, stmt)

    def _local_edge(self, method: str, src: str, dst: str,
                    stmt: Stmt) -> None:
        self.local_succs.setdefault(Fact(method, src), []).append(
            LocalEdge(dst, stmt))

    def _index_call(self, method: Method, call: Call, stmt: Stmt) -> None:
        qname = method.qname
        resolved = self._site_targets.get((qname, call.iid), set())
        targets: List[str] = []
        native_targets: List[str] = []
        for callee_qname in sorted(resolved):
            callee = self.program.lookup_method(callee_qname)
            if callee is None:
                continue
            if callee.is_native:
                native_targets.append(callee.display_name)
            else:
                targets.append(callee_qname)
        if not resolved:
            # Unresolved call (e.g. the callee was never analyzed, or the
            # target is a native we gave no summary): fall back to the
            # syntactic target for sink/sanitizer matching.
            callee = None
            if call.class_name:
                hierarchy_target = call.target_id()
                native_targets.append(hierarchy_target)
        site = CallSite(stmt, call, targets, native_targets)
        self.call_sites[qname].append(site)
        for target in targets:
            self.callers_of.setdefault(target, []).append(site)
        positions: Dict[str, List[int]] = {}
        for idx, arg in enumerate(call.args):
            positions.setdefault(arg, []).append(idx)
        if call.receiver:
            positions.setdefault(call.receiver, []).append(-1)
        for var, idxs in positions.items():
            self.arg_uses[qname].setdefault(var, []).append((site, idxs))

    # -- queries -------------------------------------------------------------

    def succs_of(self, fact: Fact) -> List[LocalEdge]:
        return self.local_succs.get(fact, [])

    def stores_using(self, method: str, var: str) -> List[StoreSite]:
        return self.store_uses.get(method, {}).get(var, [])

    def calls_using(self, method: str,
                    var: str) -> List[Tuple[CallSite, List[int]]]:
        return self.arg_uses.get(method, {}).get(var, [])

    def loads_of_field(self, fld: str) -> List[LoadSite]:
        if fld == ANY_FIELD:
            out: List[LoadSite] = []
            for sites in self.loads_by_field.values():
                out.extend(sites)
            return out
        return self.loads_by_field.get(fld, [])

    def stmt(self, ref: StmtRef) -> Optional[Stmt]:
        return self.stmts.get(ref)

    def bindings(self, site: CallSite,
                 target: str) -> List[Tuple[str, str]]:
        """(actual var, formal var) pairs for a call edge."""
        callee = self.program.lookup_method(target)
        if callee is None:
            return []
        pairs: List[Tuple[str, str]] = []
        if site.call.receiver and not callee.is_static:
            pairs.append((site.call.receiver, "this"))
        for actual, formal in zip(site.call.args, callee.param_names()):
            pairs.append((actual, formal))
        return pairs

    def return_bindings(self, site: CallSite,
                        target: str) -> List[Tuple[str, str]]:
        """(callee fact var, caller var) pairs for the return edge."""
        if site.call.lhs:
            return [(RET, site.call.lhs)]
        return []
