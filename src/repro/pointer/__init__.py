"""Context-sensitive Andersen pointer analysis and the heap graph."""

from .contexts import (CallSiteContext, Context, EMPTY, ObjContext,
                       clear_context_caches, truncate)
from .heapgraph import HeapGraph
from .keys import (AllocSite, FieldKey, InstanceKey, LocalKey, PointerKey,
                   ReturnKey, StaticFieldKey, clear_key_caches,
                   decode_instance_bits, encode_instance_keys,
                   instance_key_count)
from .policy import ContextPolicy, PolicyConfig
from .ordering import ChaoticOrder, OrderingPolicy
from .scc import UnionFind, copy_cycles
from .solver import PointerAnalysis

__all__ = [
    "AllocSite", "CallSiteContext", "ChaoticOrder", "Context",
    "ContextPolicy", "EMPTY", "FieldKey", "HeapGraph", "InstanceKey",
    "LocalKey", "ObjContext", "OrderingPolicy", "PointerAnalysis",
    "PointerKey", "PolicyConfig", "ReturnKey", "StaticFieldKey",
    "UnionFind", "clear_context_caches", "clear_key_caches", "copy_cycles",
    "decode_instance_bits", "encode_instance_keys", "instance_key_count",
    "truncate",
]


def clear_intern_caches() -> None:
    """Drop every key/context intern table.

    Only safe *between* analyses in a long-running process: keys held by
    an earlier analysis stop being identical to newly minted ones
    (structural equality still holds)."""
    clear_key_caches()
    clear_context_caches()


__all__.append("clear_intern_caches")
