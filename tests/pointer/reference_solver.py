"""The seed pointer solver and its key classes, kept as a test oracle.

This is the textbook Andersen's solver the repository started with: one
worklist entry per delta, frozenset deltas, and the original
frozen-dataclass keys and contexts, which re-hash their field tuples on
every dict probe.  The product solver
(``repro.pointer.PointerAnalysis``) must compute the identical least
fixpoint and call graph; ``tests/property/test_differential.py`` and
``tests/property/test_kernel_differential.py`` compare the two through
canonical string forms, because the two solvers use different key
families (the ``__str__`` formats match by construction).

Two seams of the product let this oracle share its decisions while
keeping its own key family: ``ContextPolicy(ctx=)`` takes this module as
the context namespace (where the kernel passes its run's ``KeyTable``),
and the native-method summaries build keys through the solver's
``make_alloc``/``make_local``/``make_field`` factories.  The classes
below are the seed's, unchanged apart from their imports; nothing under
``src/`` imports this module.  Do not optimise or dedup it; that is the
point of it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Set, \
    Tuple

from repro.bounds import Budget, UNBOUNDED
from repro.callgraph.graph import CallGraph, CGNode
from repro.ir import (ARRAY_CONTENTS, ArrayLoad, ArrayStore, Assign, Call,
                      Cast, ClassHierarchy, EnterCatch, Load, Method, New,
                      NewArray, Phi, Program, Return, Select, StaticLoad,
                      StaticStore, Store)
from repro.pointer.ordering import ChaoticOrder, OrderingPolicy
from repro.pointer.policy import ContextPolicy
# The context namespace handed to ContextPolicy(ctx=) is this module.
from tests.pointer import reference_solver as seedkeys


# -- contexts -----------------------------------------------------------------

@dataclass(frozen=True)
class Context:
    """Base class of all contexts."""

    def depth(self) -> int:
        return 0

    def __str__(self) -> str:
        return "ε"


EMPTY = Context()


@dataclass(frozen=True)
class ObjContext(Context):
    """Receiver-object sensitivity: context is an instance key."""

    receiver: "object"  # an InstanceKey; typed loosely to avoid a cycle

    def depth(self) -> int:
        return 1 + self.receiver.context.depth()  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return f"obj[{self.receiver}]"


@dataclass(frozen=True)
class CallSiteContext(Context):
    """One level of call-string: the method and call instruction id."""

    caller: str
    call_iid: int

    def depth(self) -> int:
        return 1

    def __str__(self) -> str:
        return f"cs[{self.caller}@{self.call_iid}]"


def truncate(context: Context, limit: int) -> Context:
    """Bound nested context depth; beyond ``limit`` collapse to EMPTY."""
    if limit <= 0:
        return EMPTY
    if context.depth() <= limit:
        return context
    if isinstance(context, ObjContext):
        receiver = context.receiver
        inner = truncate(receiver.context, limit - 1)  # type: ignore
        return ObjContext(receiver.with_context(inner))  # type: ignore
    return EMPTY


# ContextPolicy builds contexts through these names.
obj_context = ObjContext
call_site_context = CallSiteContext


# -- keys ---------------------------------------------------------------------

@dataclass(frozen=True)
class AllocSite:
    """A static allocation site: ``new C`` / array / caught exception."""

    method: str        # qname of the containing method
    iid: int           # instruction id within the method
    class_name: str    # allocated class (arrays: "<elem>[]")

    def __str__(self) -> str:
        return f"{self.class_name}@{self.method}:{self.iid}"


@dataclass(frozen=True)
class InstanceKey:
    """An abstract object: allocation site + heap context."""

    site: AllocSite
    context: Context = EMPTY

    @property
    def class_name(self) -> str:
        return self.site.class_name

    def with_context(self, context: Context) -> "InstanceKey":
        return replace(self, context=context)

    def __str__(self) -> str:
        if self.context == EMPTY:
            return str(self.site)
        return f"{self.site}<{self.context}>"


@dataclass(frozen=True)
class PointerKey:
    """Base class for pointer keys."""


@dataclass(frozen=True)
class LocalKey(PointerKey):
    """An SSA local of a method analyzed in a context."""

    method: str
    context: Context
    var: str

    def __str__(self) -> str:
        return f"{self.method}<{self.context}>::{self.var}"


@dataclass(frozen=True)
class FieldKey(PointerKey):
    """A field of an instance key (array contents use ``@elems``)."""

    instance: InstanceKey
    fld: str

    def __str__(self) -> str:
        return f"{self.instance}.{self.fld}"


@dataclass(frozen=True)
class StaticFieldKey(PointerKey):
    """A static field."""

    class_name: str
    fld: str

    def __str__(self) -> str:
        return f"{self.class_name}.{self.fld}"


@dataclass(frozen=True)
class ReturnKey(PointerKey):
    """The return value of a method analyzed in a context."""

    method: str
    context: Context

    def __str__(self) -> str:
        return f"ret({self.method}<{self.context}>)"


# -- solver -------------------------------------------------------------------

class SeedPointerAnalysis:
    """The seed solver; results live in ``pts``, ``call_graph``."""

    def __init__(self, program: Program,
                 policy: Optional[ContextPolicy] = None,
                 natives: Optional[object] = None,
                 order: Optional[OrderingPolicy] = None,
                 budget: Budget = UNBOUNDED,
                 excluded_classes: Optional[Set[str]] = None) -> None:
        self.program = program
        self.hierarchy = ClassHierarchy(program)
        # Rebuild the policy over the seed context classes: whatever the
        # caller passed in, this solver's contexts must stay the
        # original dataclasses.
        base_policy = policy or ContextPolicy()
        self.policy = ContextPolicy(base_policy.config, ctx=seedkeys)
        self.natives = natives
        self.budget = budget
        # Whitelisted benign classes (paper §4.2.1): calls into them are
        # never bound, so they get no call-graph nodes or constraints.
        self.excluded_classes = excluded_classes or set()
        self.call_graph = CallGraph()
        # Note: ordering policies define __bool__ as "has pending
        # nodes", so an explicit None check is required here.
        self.order = ChaoticOrder() if order is None else order
        self.order.attach(program.lookup_method, self.call_graph)
        self.truncated = False          # budget cut the analysis short

        self.pts: Dict[PointerKey, Set[InstanceKey]] = {}
        self._copy_succs: Dict[PointerKey, List[PointerKey]] = {}
        self._copy_edge_set: Set[Tuple[PointerKey, PointerKey]] = set()
        # base key -> [(field, destination local key)]
        self._load_watch: Dict[PointerKey, List[Tuple[str, PointerKey]]] = {}
        # base key -> [(field, source key)]
        self._store_watch: Dict[PointerKey, List[Tuple[str, PointerKey]]] = {}
        # receiver key -> [(caller node, call instruction)]
        self._call_watch: Dict[PointerKey, List[Tuple[CGNode, Call]]] = {}
        self._dispatched: Set[Tuple[CGNode, int, InstanceKey]] = set()
        self._worklist: Deque[Tuple[PointerKey, FrozenSet[InstanceKey]]] = \
            deque()
        self._processed_nodes: Set[CGNode] = set()
        self.stats = {"propagations": 0, "edges": 0, "nodes_processed": 0}

    # ------------------------------------------------------------------ API

    def solve(self) -> None:
        """Run to completion (or to the call-graph node budget)."""
        for qname in self.program.entrypoints:
            node = self._make_node(qname, EMPTY)
            if node is not None:
                self.call_graph.entrypoints.append(node)
        while True:
            if self._budget_met():
                self.truncated = True
                break
            node = self.order.pop()
            if node is None:
                break
            if node in self._processed_nodes:
                continue
            self._processed_nodes.add(node)
            self.stats["nodes_processed"] += 1
            self._add_constraints(node)
            self._solve_constraints()

    def points_to(self, key: PointerKey) -> FrozenSet[InstanceKey]:
        return frozenset(self.pts.get(key, ()))

    def points_to_var(self, method: str, var: str,
                      context: Optional[Context] = None) -> Set[InstanceKey]:
        """Points-to set of a local, unioned over contexts if none given."""
        if context is not None:
            return self.points_to(LocalKey(method, context, var))
        out: Set[InstanceKey] = set()
        for node in self.call_graph.nodes_of_method(method):
            out |= self.points_to(LocalKey(method, node.context, var))
        return out

    def iter_pts(self):
        """(key, points-to set) for every key the solver has seen."""
        return self.pts.items()

    # Key factories used by native-method summaries (the optimised
    # solver provides the same API over its interned key family).

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
        """Add instance keys to a pointer key, scheduling propagation."""
        current = self.pts.setdefault(key, set())
        delta = frozenset(k for k in ikeys if k not in current)
        if delta:
            current |= delta
            self._worklist.append((key, delta))
            return True
        return False

    def add_copy_edge(self, src: PointerKey, dst: PointerKey) -> None:
        """Add a subset edge src ⊆ dst and flush current contents."""
        if (src, dst) in self._copy_edge_set or src == dst:
            return
        self._copy_edge_set.add((src, dst))
        self._copy_succs.setdefault(src, []).append(dst)
        self.stats["edges"] += 1
        existing = self.pts.get(src)
        if existing:
            self.add_pts(dst, existing)

    def register_call_watch(self, key: PointerKey, node: CGNode,
                            call: Call) -> None:
        """Watch ``key`` for new receivers of ``call``, dispatching the
        already-known ones (used by native-method summaries too)."""
        self._call_watch.setdefault(key, []).append((node, call))
        for ikey in tuple(self.pts.get(key, ())):
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
        self.add_pts(self._local(node, lhs), {ikey})

    def _static_key(self, class_name: str, fld: str) -> StaticFieldKey:
        owner = self.hierarchy.resolve_field_owner(class_name, fld)
        return StaticFieldKey(owner or class_name, fld)

    def _watch_load(self, base: PointerKey, fld: str,
                    dst: PointerKey) -> None:
        self._load_watch.setdefault(base, []).append((fld, dst))
        for ikey in self.pts.get(base, ()):
            self.add_copy_edge(FieldKey(ikey, fld), dst)

    def _watch_store(self, base: PointerKey, fld: str,
                     src: PointerKey) -> None:
        self._store_watch.setdefault(base, []).append((fld, src))
        for ikey in self.pts.get(base, ()):
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
            self.add_pts(LocalKey(callee.qname, context, "this"),
                         {receiver})
        for actual, param in zip(call.args, callee.param_names()):
            self.add_copy_edge(self._local(node, actual),
                               LocalKey(callee.qname, context, param))
        if call.lhs:
            self.add_copy_edge(ReturnKey(callee.qname, context),
                               self._local(node, call.lhs))

    # ------------------------------------------------------ constraint solving

    def _solve_constraints(self) -> None:
        while self._worklist:
            key, delta = self._worklist.popleft()
            self.stats["propagations"] += 1
            for dst in self._copy_succs.get(key, ()):
                self.add_pts(dst, delta)
            for fld, dst in self._load_watch.get(key, ()):
                for ikey in delta:
                    self.add_copy_edge(FieldKey(ikey, fld), dst)
            for fld, src in self._store_watch.get(key, ()):
                for ikey in delta:
                    self.add_copy_edge(src, FieldKey(ikey, fld))
            for caller_node, call in self._call_watch.get(key, ()):
                for ikey in delta:
                    self._dispatch(caller_node, call, ikey)
