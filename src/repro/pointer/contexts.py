"""Calling contexts for the pointer analysis.

TAJ's context-sensitivity policy (paper §3.1) mixes three kinds of
context:

* the **empty** context (context-insensitive treatment);
* **object contexts** — the abstraction of the receiver object (one level
  for most methods, unlimited depth for collection classes);
* **call-site contexts** — one level of call string for library factory
  methods and taint-specific APIs.

Contexts nest because instance keys embed their heap context;
:meth:`KeyTable.truncate <repro.pointer.keys.KeyTable.truncate>` bounds
total nesting so unlimited-depth object sensitivity terminates even
through recursive data structures.

Object and call-site contexts are interned by the analysis's
:class:`~repro.pointer.keys.KeyTable`, so contexts compare and hash *by
identity* (the default ``object`` semantics) and the solver's dict
operations never re-hash nested structures.  Depths are precomputed at
construction time.
"""

from __future__ import annotations


class Context:
    """Base class of all contexts; :data:`EMPTY` is the empty context."""

    __slots__ = ("_depth",)

    def __init__(self) -> None:
        object.__setattr__(self, "_depth", 0)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def depth(self) -> int:
        return self._depth

    def __str__(self) -> str:
        return "ε"

    def __repr__(self) -> str:
        return f"<ctx {self}>"


EMPTY = Context()


class ObjContext(Context):
    """Receiver-object sensitivity: context is an instance key."""

    __slots__ = ("receiver",)

    def __init__(self, receiver: "object") -> None:
        # receiver is an InstanceKey; typed loosely to avoid a cycle.
        _set = object.__setattr__
        _set(self, "receiver", receiver)
        _set(self, "_depth",
             1 + receiver.context.depth())  # type: ignore[attr-defined]

    def __str__(self) -> str:
        return f"obj[{self.receiver}]"


class CallSiteContext(Context):
    """One level of call-string: the method and call instruction id."""

    __slots__ = ("caller", "call_iid")

    def __init__(self, caller: str, call_iid: int) -> None:
        _set = object.__setattr__
        _set(self, "caller", caller)
        _set(self, "call_iid", call_iid)
        _set(self, "_depth", 1)

    def __str__(self) -> str:
        return f"cs[{self.caller}@{self.call_iid}]"
