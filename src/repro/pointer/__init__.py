"""Context-sensitive Andersen pointer analysis and the heap graph."""

from .contexts import CallSiteContext, Context, EMPTY, ObjContext
from .heapgraph import HeapGraph
from .keys import (AllocSite, FieldKey, InstanceKey, KeyTable, LocalKey,
                   PointerKey, ReturnKey, StaticFieldKey,
                   encode_instance_keys)
from .policy import ContextPolicy, PolicyConfig
from .ordering import ChaoticOrder, OrderingPolicy
from .solver import PointerAnalysis

__all__ = [
    "AllocSite", "CallSiteContext", "ChaoticOrder", "Context",
    "ContextPolicy", "EMPTY", "FieldKey", "HeapGraph", "InstanceKey",
    "KeyTable", "LocalKey", "ObjContext", "OrderingPolicy",
    "PointerAnalysis", "PointerKey", "PolicyConfig", "ReturnKey",
    "StaticFieldKey", "encode_instance_keys",
]
