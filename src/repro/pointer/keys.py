"""Instance keys and pointer keys (the heap-graph vocabulary of §4.1.1).

An *instance key* abstracts a set of runtime objects: an allocation site
plus a heap context.  A *pointer key* abstracts a set of runtime pointers:
a context-qualified local, a field of an instance key, a static field, or
a method return value.

Keys belong to one analysis.  Each
:class:`~repro.pointer.solver.PointerAnalysis` owns a :class:`KeyTable`
that **interns** every allocation site, instance key, pointer key and
context the run creates: asking the table twice for the same fields
returns the same object, so keys compare and hash *by identity* (the
default ``object`` semantics — no Python-level ``__hash__``/``__eq__``
runs on the solver's millions of dict probes).  Keys from two tables
never compare equal, and a table is freed with the analysis that owns
it.  All keys are immutable and carry ``__slots__``.

The table also hands out **dense integer IDs** to instance keys,
starting at 0 in construction order.  An index doubles as a bit
position — ``InstanceKey.bit`` is ``1 << index`` — so a points-to set is
one Python int and set algebra becomes bitwise arithmetic
(``ptset | delta``, ``new & ~old``).  :func:`encode_instance_keys` and
:meth:`KeyTable.decode` translate between the two worlds at the
solver's API boundary (``docs/performance.md``); a bitset decodes only
through the table that made it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from .contexts import CallSiteContext, Context, EMPTY, ObjContext

_set = object.__setattr__


class _Frozen:
    """Shared plumbing: frozen attributes, identity hash/eq."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class AllocSite(_Frozen):
    """A static allocation site: ``new C`` / array / caught exception."""

    __slots__ = ("method", "iid", "class_name")

    def __init__(self, method: str, iid: int, class_name: str) -> None:
        _set(self, "method", method)
        _set(self, "iid", iid)
        _set(self, "class_name", class_name)

    def __str__(self) -> str:
        return f"{self.class_name}@{self.method}:{self.iid}"

    __repr__ = __str__


class InstanceKey(_Frozen):
    """An abstract object: allocation site + heap context.

    ``index`` is the key's position in its table's dense ID space;
    ``bit`` is the precomputed ``1 << index`` singleton bitset.
    """

    __slots__ = ("site", "context", "index", "bit")

    def __init__(self, site: AllocSite, context: Context,
                 index: int) -> None:
        _set(self, "site", site)
        _set(self, "context", context)
        _set(self, "index", index)
        _set(self, "bit", 1 << index)

    @property
    def class_name(self) -> str:
        return self.site.class_name

    def __str__(self) -> str:
        if self.context is EMPTY:
            return str(self.site)
        return f"{self.site}<{self.context}>"

    __repr__ = __str__


class PointerKey(_Frozen):
    """Base class for pointer keys (locals, fields, statics, returns)."""

    __slots__ = ()


class LocalKey(PointerKey):
    """An SSA local of a method analyzed in a context."""

    __slots__ = ("method", "context", "var")

    def __init__(self, method: str, context: Context, var: str) -> None:
        _set(self, "method", method)
        _set(self, "context", context)
        _set(self, "var", var)

    def __str__(self) -> str:
        return f"{self.method}<{self.context}>::{self.var}"

    __repr__ = __str__


class FieldKey(PointerKey):
    """A field of an instance key (array contents use ``@elems``)."""

    __slots__ = ("instance", "fld")

    def __init__(self, instance: InstanceKey, fld: str) -> None:
        _set(self, "instance", instance)
        _set(self, "fld", fld)

    def __str__(self) -> str:
        return f"{self.instance}.{self.fld}"

    __repr__ = __str__


class StaticFieldKey(PointerKey):
    """A static field."""

    __slots__ = ("class_name", "fld")

    def __init__(self, class_name: str, fld: str) -> None:
        _set(self, "class_name", class_name)
        _set(self, "fld", fld)

    def __str__(self) -> str:
        return f"{self.class_name}.{self.fld}"

    __repr__ = __str__


class ReturnKey(PointerKey):
    """The return value of a method analyzed in a context."""

    __slots__ = ("method", "context")

    def __init__(self, method: str, context: Context) -> None:
        _set(self, "method", method)
        _set(self, "context", context)

    def __str__(self) -> str:
        return f"ret({self.method}<{self.context}>)"

    __repr__ = __str__


class KeyTable:
    """The interned keys and contexts of one pointer analysis.

    It is also the namespace a
    :class:`~repro.pointer.policy.ContextPolicy` decides in: ``EMPTY``,
    the ``CallSiteContext`` class its ``isinstance`` test reads, and
    the ``obj_context`` / ``call_site_context`` / ``truncate``
    constructors.
    """

    EMPTY = EMPTY
    CallSiteContext = CallSiteContext

    def __init__(self) -> None:
        # ``instances[i]`` is the instance key whose bit position is i.
        self.instances: List[InstanceKey] = []
        self._sites: Dict[Tuple[str, int, str], AllocSite] = {}
        self._instance_keys: Dict[Tuple[AllocSite, Context],
                                  InstanceKey] = {}
        self._locals: Dict[Tuple[str, Context, str], LocalKey] = {}
        self._fields: Dict[Tuple[InstanceKey, str], FieldKey] = {}
        self._statics: Dict[Tuple[str, str], StaticFieldKey] = {}
        self._returns: Dict[Tuple[str, Context], ReturnKey] = {}
        self._obj_contexts: Dict[InstanceKey, ObjContext] = {}
        self._call_sites: Dict[Tuple[str, int], CallSiteContext] = {}

    # -- keys -----------------------------------------------------------------

    def alloc_site(self, method: str, iid: int,
                   class_name: str) -> AllocSite:
        fields = (method, iid, class_name)
        site = self._sites.get(fields)
        if site is None:
            site = self._sites[fields] = AllocSite(method, iid, class_name)
        return site

    def instance_key(self, site: AllocSite,
                     context: Context = EMPTY) -> InstanceKey:
        fields = (site, context)
        key = self._instance_keys.get(fields)
        if key is None:
            key = InstanceKey(site, context, len(self.instances))
            self.instances.append(key)
            self._instance_keys[fields] = key
        return key

    def local(self, method: str, context: Context, var: str) -> LocalKey:
        fields = (method, context, var)
        key = self._locals.get(fields)
        if key is None:
            key = self._locals[fields] = LocalKey(method, context, var)
        return key

    def field(self, instance: InstanceKey, fld: str) -> FieldKey:
        fields = (instance, fld)
        key = self._fields.get(fields)
        if key is None:
            key = self._fields[fields] = FieldKey(instance, fld)
        return key

    def static_field(self, class_name: str, fld: str) -> StaticFieldKey:
        fields = (class_name, fld)
        key = self._statics.get(fields)
        if key is None:
            key = self._statics[fields] = StaticFieldKey(class_name, fld)
        return key

    def ret(self, method: str, context: Context) -> ReturnKey:
        fields = (method, context)
        key = self._returns.get(fields)
        if key is None:
            key = self._returns[fields] = ReturnKey(method, context)
        return key

    # -- contexts -------------------------------------------------------------

    def obj_context(self, receiver: InstanceKey) -> ObjContext:
        context = self._obj_contexts.get(receiver)
        if context is None:
            context = self._obj_contexts[receiver] = ObjContext(receiver)
        return context

    def call_site_context(self, caller: str,
                          call_iid: int) -> CallSiteContext:
        fields = (caller, call_iid)
        context = self._call_sites.get(fields)
        if context is None:
            context = self._call_sites[fields] = \
                CallSiteContext(caller, call_iid)
        return context

    def truncate(self, context: Context, limit: int) -> Context:
        """Bound nested context depth; beyond ``limit`` collapse to EMPTY.

        Applied when minting object contexts so unlimited-depth object
        sensitivity for collections (which would otherwise recurse
        through e.g. maps of maps) terminates.  The paper bounds this by
        recursion; a fixed depth cap is the standard finite realization.
        """
        if limit <= 0:
            return EMPTY
        if context.depth() <= limit:
            return context
        if isinstance(context, ObjContext):
            receiver = context.receiver
            inner = self.truncate(receiver.context, limit - 1)
            return self.obj_context(
                self.instance_key(receiver.site, inner))
        return EMPTY

    # -- bitsets --------------------------------------------------------------

    def decode(self, bits: int) -> List[InstanceKey]:
        """Expand a bitset int back into instance keys (ascending index).

        Walks only the set bits: ``bits & -bits`` isolates the lowest
        one, so a sparse set over a wide ID space stays cheap to decode.
        """
        table = self.instances
        out: List[InstanceKey] = []
        append = out.append
        while bits:
            low = bits & -bits
            append(table[low.bit_length() - 1])
            bits ^= low
        return out


def encode_instance_keys(ikeys: Iterable[InstanceKey]) -> int:
    """Fold instance keys into one bitset int."""
    bits = 0
    for ikey in ikeys:
        bits |= ikey.bit
    return bits
