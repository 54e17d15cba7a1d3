"""TAJ's context-sensitivity policy (paper §3.1).

The policy decides, per call, under which context a callee is analyzed,
and, per allocation, which heap context an instance key carries:

* most instance methods — **one level of object sensitivity**: the
  context is the instance key of the receiver;
* methods of **collection classes** — unlimited-depth object sensitivity
  (bounded by ``collection_depth`` to realize "up to recursion"), and
  allocations inside them inherit the method context, so *the internal
  objects of a collection are cloned per collection instance*;
* **library factory methods** — one level of call-string context, with
  heap cloning, so objects minted by a shared factory allocation site are
  disambiguated per call site;
* **taint-specific APIs** (sources, sinks, sanitizers) — one level of
  call-string context, which is what lets TAJ distinguish the two
  ``getParameter`` calls of the motivating example;
* static methods and everything else — context-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from ..ir import Call, Method
from .contexts import Context
from .keys import InstanceKey, KeyTable

# Default depth cap realizing "unlimited-depth (up to recursion)".
COLLECTION_DEPTH = 6
# Safety cap on any context nesting.
MAX_DEPTH = 8


@dataclass
class PolicyConfig:
    """Knobs for the context policy; the ablation bench flips these."""

    object_sensitive: bool = True
    collections_unlimited: bool = True
    factory_call_strings: bool = True
    taint_api_call_strings: bool = True
    collection_depth: int = COLLECTION_DEPTH
    # Class names treated as collections (the stdlib model registers its
    # container classes here).
    collection_classes: Set[str] = field(default_factory=set)
    # Method qnames ("Class.name") treated as library factories.
    factory_methods: Set[str] = field(default_factory=set)
    # Library methods whose names start with one of these prefixes are
    # also treated as factories (the hand-maintained list in TAJ covers
    # the JDK; the prefix heuristic covers application-bundled helpers).
    factory_name_prefixes: tuple = ("create", "make")
    # Method qnames of taint-specific APIs (sources/sinks/sanitizers).
    taint_api_methods: Set[str] = field(default_factory=set)

    @staticmethod
    def insensitive() -> "PolicyConfig":
        return PolicyConfig(object_sensitive=False,
                            collections_unlimited=False,
                            factory_call_strings=False,
                            taint_api_call_strings=False)


class ContextPolicy:
    """Implements the callee-context and heap-context decisions.

    ``ctx`` is the namespace contexts are built in: anything exposing
    ``EMPTY``, the ``CallSiteContext`` class, and ``obj_context``,
    ``call_site_context`` and ``truncate``.  It defaults to a fresh
    :class:`~repro.pointer.keys.KeyTable`.  A solver rebuilds the policy
    it is given over its own namespace: the kernel over its run's key
    table, the seed solver kept as a test oracle
    (``tests/pointer/reference_solver.py``) over its module of original
    dataclasses.
    """

    def __init__(self, config: Optional[PolicyConfig] = None,
                 ctx=None) -> None:
        self.config = config or PolicyConfig()
        self.ctx = KeyTable() if ctx is None else ctx

    # -- classification -----------------------------------------------------

    def is_collection_class(self, class_name: str) -> bool:
        return class_name in self.config.collection_classes

    def is_factory(self, method: Method) -> bool:
        if method.display_name in self.config.factory_methods:
            return True
        return method.name.startswith(self.config.factory_name_prefixes)

    def is_taint_api(self, method: Method) -> bool:
        return method.display_name in self.config.taint_api_methods

    # -- decisions ------------------------------------------------------------

    def callee_context(self, caller_method: str, caller_context: Context,
                       call: Call, callee: Method,
                       receiver: Optional[InstanceKey]) -> Context:
        """Context under which ``callee`` is analyzed for this edge."""
        cfg = self.config
        ctx = self.ctx
        if cfg.taint_api_call_strings and self.is_taint_api(callee):
            return ctx.call_site_context(caller_method, call.iid)
        if cfg.factory_call_strings and self.is_factory(callee):
            return ctx.call_site_context(caller_method, call.iid)
        if receiver is not None and cfg.object_sensitive:
            if cfg.collections_unlimited and \
                    self.is_collection_class(callee.class_name):
                return ctx.truncate(ctx.obj_context(receiver),
                                    cfg.collection_depth)
            return ctx.truncate(ctx.obj_context(receiver), MAX_DEPTH)
        return ctx.EMPTY

    def heap_context(self, method: Method, context: Context) -> Context:
        """Heap context for allocation sites inside ``method``/``context``.

        Collection internals and factory-made objects inherit the method
        context (cloned per collection instance / call site); all other
        allocations get a context-insensitive heap.
        """
        ctx = self.ctx
        if isinstance(context, ctx.CallSiteContext):
            return context
        if self.config.collections_unlimited and \
                self.is_collection_class(method.class_name):
            return ctx.truncate(context, self.config.collection_depth)
        return ctx.EMPTY
