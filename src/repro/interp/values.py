"""Runtime values for the concrete jlang interpreter.

Strings carry a *taint set* of source labels, making the interpreter a
dynamic taint analysis — the validation counterpart to TAJ's static
analysis (the paper contrasts the two in §8, citing [4]).

Label conventions:

* ``src:<Method@iid>``  — a web-input source (getParameter & friends);
* ``exc:<Method@iid>``  — a caught exception's internal message;
* ``sys:<Method@iid>``  — system configuration (``System.getProperty``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

NO_TAINT: FrozenSet[str] = frozenset()

_ids = itertools.count(1)


@dataclass(frozen=True)
class JNull:
    def truthy(self) -> bool:
        return False

    def __str__(self) -> str:
        return "null"


NULL = JNull()


@dataclass(frozen=True)
class JBool:
    value: bool

    def truthy(self) -> bool:
        return self.value

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = JBool(True)
FALSE = JBool(False)


@dataclass(frozen=True)
class JInt:
    value: int

    def truthy(self) -> bool:
        return self.value != 0

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class JString:
    """An immutable string value carrying its taint labels."""

    value: str
    taint: FrozenSet[str] = NO_TAINT

    def truthy(self) -> bool:
        return True

    def sanitized(self) -> "JString":
        return JString(self.value, NO_TAINT)

    def with_sanitizer(self, display: str) -> "JString":
        """Annotate every label with a sanitizer application instead of
        stripping it: sanitizers are rule-specific, so whether a label
        still witnesses a rule is decided at validation time."""
        return JString(self.value, frozenset(
            f"{label}|san={display}" for label in self.taint))

    def __str__(self) -> str:
        return self.value


class JObject:
    """A heap object: class name + mutable fields; identity semantics."""

    def __init__(self, class_name: str,
                 fields: Optional[Dict[str, object]] = None) -> None:
        self.oid = next(_ids)
        self.class_name = class_name
        self.fields: Dict[str, object] = fields or {}

    def truthy(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"<{self.class_name}#{self.oid}>"


class JArray:
    """An array; elements default to null."""

    def __init__(self, length: int = 0) -> None:
        self.oid = next(_ids)
        self.elements: List[object] = [NULL] * max(0, length)

    def store(self, index: int, value: object) -> None:
        while index >= len(self.elements):
            self.elements.append(NULL)
        self.elements[index] = value

    def load(self, index: int) -> object:
        if 0 <= index < len(self.elements):
            return self.elements[index]
        return NULL

    def truthy(self) -> bool:
        return True


@dataclass(frozen=True)
class JClass:
    """A reflective ``Class`` value (``Class.forName`` result)."""

    class_name: str

    def truthy(self) -> bool:
        return True


@dataclass(frozen=True)
class JMethod:
    """A reflective ``Method`` value."""

    class_name: str
    method_name: str

    def truthy(self) -> bool:
        return True


@dataclass(frozen=True)
class JHome:
    """An EJB home stand-in minted by ``InitialContext.lookup``."""

    bean_class: str

    def truthy(self) -> bool:
        return True


def taint_of(value: object) -> FrozenSet[str]:
    """Direct taint of a value (strings only; objects carry state)."""
    if isinstance(value, JString):
        return value.taint
    return NO_TAINT


def deep_taint(value: object, max_depth: int = 6,
               _seen: Optional[set] = None) -> FrozenSet[str]:
    """Taint reachable through an object's state (carrier semantics)."""
    if isinstance(value, JString):
        return value.taint
    if max_depth <= 0:
        return NO_TAINT
    seen = _seen if _seen is not None else set()
    out: FrozenSet[str] = NO_TAINT
    if isinstance(value, JObject):
        if value.oid in seen:
            return NO_TAINT
        seen.add(value.oid)
        for child in value.fields.values():
            out |= deep_taint(child, max_depth - 1, seen)
    elif isinstance(value, JArray):
        if value.oid in seen:
            return NO_TAINT
        seen.add(value.oid)
        for child in value.elements:
            out |= deep_taint(child, max_depth - 1, seen)
    return out
