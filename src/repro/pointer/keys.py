"""Instance keys and pointer keys (the heap-graph vocabulary of §4.1.1).

An *instance key* abstracts a set of runtime objects: an allocation site
plus a heap context.  A *pointer key* abstracts a set of runtime pointers:
a context-qualified local, a field of an instance key, a static field, or
a method return value.

Keys are **interned**: constructing a key with the same fields returns
the same object, so keys compare and hash *by identity* (the default
``object`` semantics — no Python-level ``__hash__``/``__eq__`` runs on
the solver's millions of dict probes).  ``__reduce__`` re-interns on
unpickling, which keeps ``pickle``/``copy.deepcopy`` round-trips
identity-correct.  All keys are immutable and carry ``__slots__``.

Interning also hands out **dense integer IDs**: every allocation site,
every instance key, and every pointer key receives a contiguous
``index`` at first construction.  Instance-key indices double as bit
positions — ``InstanceKey.bit`` is ``1 << index`` — so a points-to set
is one Python int and set algebra becomes bitwise arithmetic
(``ptset | delta``, ``new & ~old``).  :func:`encode_instance_keys` /
:func:`decode_instance_bits` translate between the two worlds at the
solver's API boundary (``docs/performance.md``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .contexts import Context, EMPTY

_set = object.__setattr__

# Dense-ID registries.  ``_INSTANCE_KEYS[i]`` is the instance key whose
# bit position is ``i``; pointer keys share one index space across the
# four key families (used for stable, identity-free orderings).
_INSTANCE_KEYS: List["InstanceKey"] = []
_POINTER_KEY_COUNT = 0


class _Interned:
    """Shared plumbing: frozen attributes, identity hash/eq."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class AllocSite(_Interned):
    """A static allocation site: ``new C`` / array / caught exception."""

    __slots__ = ("method", "iid", "class_name", "index")

    _interned: Dict[Tuple[str, int, str], "AllocSite"] = {}

    def __new__(cls, method: str, iid: int, class_name: str) -> "AllocSite":
        key = (method, iid, class_name)
        self = cls._interned.get(key)
        if self is None:
            self = object.__new__(cls)
            _set(self, "method", method)
            _set(self, "iid", iid)
            _set(self, "class_name", class_name)
            _set(self, "index", len(cls._interned))
            cls._interned[key] = self
        return self

    def __reduce__(self):
        return (AllocSite, (self.method, self.iid, self.class_name))

    def __str__(self) -> str:
        return f"{self.class_name}@{self.method}:{self.iid}"

    __repr__ = __str__


class InstanceKey(_Interned):
    """An abstract object: allocation site + heap context.

    ``index`` is the key's position in the dense ID space; ``bit`` is
    the precomputed ``1 << index`` singleton bitset.
    """

    __slots__ = ("site", "context", "index", "bit")

    _interned: Dict[Tuple[AllocSite, Context], "InstanceKey"] = {}

    def __new__(cls, site: AllocSite,
                context: Context = EMPTY) -> "InstanceKey":
        key = (site, context)
        self = cls._interned.get(key)
        if self is None:
            self = object.__new__(cls)
            _set(self, "site", site)
            _set(self, "context", context)
            index = len(_INSTANCE_KEYS)
            _set(self, "index", index)
            _set(self, "bit", 1 << index)
            _INSTANCE_KEYS.append(self)
            cls._interned[key] = self
        return self

    @property
    def class_name(self) -> str:
        return self.site.class_name

    def with_context(self, context: Context) -> "InstanceKey":
        return InstanceKey(self.site, context)

    def __reduce__(self):
        return (InstanceKey, (self.site, self.context))

    def __str__(self) -> str:
        if self.context is EMPTY:
            return str(self.site)
        return f"{self.site}<{self.context}>"

    __repr__ = __str__


class PointerKey(_Interned):
    """Base class for pointer keys.

    Every concrete pointer key carries a dense ``index`` shared across
    the four families (locals, fields, statics, returns), assigned at
    intern time in construction order.
    """

    __slots__ = ()


def _pointer_index() -> int:
    global _POINTER_KEY_COUNT
    index = _POINTER_KEY_COUNT
    _POINTER_KEY_COUNT = index + 1
    return index


class LocalKey(PointerKey):
    """An SSA local of a method analyzed in a context."""

    __slots__ = ("method", "context", "var", "index")

    _interned: Dict[Tuple[str, Context, str], "LocalKey"] = {}

    def __new__(cls, method: str, context: Context, var: str) -> "LocalKey":
        key = (method, context, var)
        self = cls._interned.get(key)
        if self is None:
            self = object.__new__(cls)
            _set(self, "method", method)
            _set(self, "context", context)
            _set(self, "var", var)
            _set(self, "index", _pointer_index())
            cls._interned[key] = self
        return self

    def __reduce__(self):
        return (LocalKey, (self.method, self.context, self.var))

    def __str__(self) -> str:
        return f"{self.method}<{self.context}>::{self.var}"

    __repr__ = __str__


class FieldKey(PointerKey):
    """A field of an instance key (array contents use ``@elems``)."""

    __slots__ = ("instance", "fld", "index")

    _interned: Dict[Tuple[InstanceKey, str], "FieldKey"] = {}

    def __new__(cls, instance: InstanceKey, fld: str) -> "FieldKey":
        key = (instance, fld)
        self = cls._interned.get(key)
        if self is None:
            self = object.__new__(cls)
            _set(self, "instance", instance)
            _set(self, "fld", fld)
            _set(self, "index", _pointer_index())
            cls._interned[key] = self
        return self

    def __reduce__(self):
        return (FieldKey, (self.instance, self.fld))

    def __str__(self) -> str:
        return f"{self.instance}.{self.fld}"

    __repr__ = __str__


class StaticFieldKey(PointerKey):
    """A static field."""

    __slots__ = ("class_name", "fld", "index")

    _interned: Dict[Tuple[str, str], "StaticFieldKey"] = {}

    def __new__(cls, class_name: str, fld: str) -> "StaticFieldKey":
        key = (class_name, fld)
        self = cls._interned.get(key)
        if self is None:
            self = object.__new__(cls)
            _set(self, "class_name", class_name)
            _set(self, "fld", fld)
            _set(self, "index", _pointer_index())
            cls._interned[key] = self
        return self

    def __reduce__(self):
        return (StaticFieldKey, (self.class_name, self.fld))

    def __str__(self) -> str:
        return f"{self.class_name}.{self.fld}"

    __repr__ = __str__


class ReturnKey(PointerKey):
    """The return value of a method analyzed in a context."""

    __slots__ = ("method", "context", "index")

    _interned: Dict[Tuple[str, Context], "ReturnKey"] = {}

    def __new__(cls, method: str, context: Context) -> "ReturnKey":
        key = (method, context)
        self = cls._interned.get(key)
        if self is None:
            self = object.__new__(cls)
            _set(self, "method", method)
            _set(self, "context", context)
            _set(self, "index", _pointer_index())
            cls._interned[key] = self
        return self

    def __reduce__(self):
        return (ReturnKey, (self.method, self.context))

    def __str__(self) -> str:
        return f"ret({self.method}<{self.context}>)"

    __repr__ = __str__


# ---------------------------------------------------------------- bitsets

def instance_key_count() -> int:
    """Number of instance keys minted so far (== width of the dense ID
    space; every live bitset fits in this many bits)."""
    return len(_INSTANCE_KEYS)


def encode_instance_keys(ikeys: Iterable[InstanceKey]) -> int:
    """Fold instance keys into one bitset int."""
    bits = 0
    for ikey in ikeys:
        bits |= ikey.bit
    return bits


def decode_instance_bits(bits: int) -> List[InstanceKey]:
    """Expand a bitset int back into instance keys (ascending index).

    Walks only the set bits: ``bits & -bits`` isolates the lowest one,
    so a sparse set over a wide ID space stays cheap to decode.
    """
    table = _INSTANCE_KEYS
    out: List[InstanceKey] = []
    append = out.append
    while bits:
        low = bits & -bits
        append(table[low.bit_length() - 1])
        bits ^= low
    return out


def clear_key_caches() -> None:
    """Drop the intern tables (and the dense-ID registries).

    Only safe *between* analyses in a long-running process: keys are
    identity-compared, so keys held from before a clear are never equal
    to keys minted after it — and bitsets built before a clear decode
    to the wrong keys after it."""
    global _POINTER_KEY_COUNT
    for cls in (AllocSite, InstanceKey, LocalKey, FieldKey, StaticFieldKey,
                ReturnKey):
        cls._interned.clear()
    _INSTANCE_KEYS.clear()
    _POINTER_KEY_COUNT = 0
