"""Class-hierarchy queries: subtyping and virtual-dispatch resolution."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from .program import ClassDecl, Method, Program


class ClassHierarchy:
    """Precomputed subtype and dispatch tables for a :class:`Program`.

    Dispatch follows Java semantics restricted to jlang: a virtual call
    ``o.m(a1..an)`` resolves, for each possible runtime class ``C`` of
    ``o``, to the first definition of ``m/n`` found walking from ``C`` up
    the superclass chain.  Interfaces contribute subtype facts (for cast
    reasoning in the Struts model) but no method bodies.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self._subclasses: Dict[str, Set[str]] = {}
        self._supers: Dict[str, List[str]] = {}
        self._dispatch_cache: Dict[Tuple[str, str, int], Optional[Method]] = {}
        self._build()

    def _build(self) -> None:
        for cls in self.program.classes.values():
            chain: List[str] = []
            seen: Set[str] = set()
            cur: Optional[ClassDecl] = cls
            while cur is not None and cur.name not in seen:
                seen.add(cur.name)
                chain.append(cur.name)
                # Interface subtyping is transitive through superclasses.
                for iface in cur.interfaces:
                    self._subclasses.setdefault(iface, set()).add(cls.name)
                cur = (self.program.get_class(cur.super_name)
                       if cur.super_name else None)
            self._supers[cls.name] = chain
            for ancestor in chain:
                self._subclasses.setdefault(ancestor, set()).add(cls.name)

    # -- subtyping ---------------------------------------------------------

    def is_subtype(self, sub: str, sup: str) -> bool:
        """True if ``sub`` is ``sup`` or a transitive subtype of it."""
        if sub == sup or sup == "Object":
            return True
        return sub in self._subclasses.get(sup, set())

    def subtypes(self, name: str) -> Set[str]:
        """All classes that are subtypes of ``name`` (including itself)."""
        out = set(self._subclasses.get(name, set()))
        if name in self.program.classes:
            out.add(name)
        return out

    def concrete_subtypes(self, name: str) -> List[str]:
        """Instantiable (non-interface) subtypes, sorted for determinism."""
        return sorted(
            s for s in self.subtypes(name)
            if (c := self.program.get_class(s)) and not c.is_interface)

    def superclass_chain(self, name: str) -> List[str]:
        return self._supers.get(name, [name])

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, runtime_class: str, method_name: str,
                 arity: int) -> Optional[Method]:
        """Resolve a virtual call for a concrete receiver class."""
        key = (runtime_class, method_name, arity)
        if key in self._dispatch_cache:
            return self._dispatch_cache[key]
        result: Optional[Method] = None
        for cname in self._supers.get(runtime_class, []):
            cls = self.program.get_class(cname)
            if cls is None:
                continue
            method = cls.get_method(method_name, arity)
            if method is not None:
                result = method
                break
        self._dispatch_cache[key] = result
        return result

    def lookup_static(self, class_name: str, method_name: str,
                      arity: int) -> Optional[Method]:
        """Resolve a static or special call (walks up for inherited statics)."""
        return self.dispatch(class_name, method_name, arity)

    def resolve_field_owner(self, class_name: str, fld: str) -> Optional[str]:
        """Find the class in the superclass chain declaring ``fld``."""
        for cname in self._supers.get(class_name, [class_name]):
            cls = self.program.get_class(cname)
            if cls and fld in cls.fields:
                return cname
        return None

    def all_overrides(self, method_name: str, arity: int) -> Iterator[Method]:
        """Every method in the program with the given name and arity."""
        for cls in self.program.classes.values():
            method = cls.get_method(method_name, arity)
            if method is not None:
                yield method
