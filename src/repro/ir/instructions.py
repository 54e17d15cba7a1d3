"""Three-address instructions for the jlang IR.

Each instruction lives in a basic block of a method and carries:

* ``iid`` — a method-unique integer id, stable across passes, used to
  identify allocation sites, SDG nodes, and report locations;
* ``line`` — the source line it was lowered from (0 for synthetic code).

Design notes relevant to the analyses built on top:

* ``defs()`` / ``uses()`` are the plain def/use sets.
* ``value_uses()`` excludes *base-pointer* uses (the base of a load or
  store).  Thin slicing (Sridharan et al., PLDI'07), and therefore TAJ's
  hybrid thin slicing, ignores base-pointer data dependencies; exposing
  the distinction here keeps the SDG construction trivial.
* ``StringOp`` is not produced by the frontend: the string-carrier
  modeling pass (paper §4.2.1) rewrites calls on String/StringBuffer/
  StringBuilder into these primitive value operations so that string data
  flow never touches the heap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .types import Type

# A variable is a plain string.  SSA construction renames ``x`` to
# ``x.1``, ``x.2``; temporaries introduced by lowering start with ``%``.
Var = str


@dataclass
class Instruction:
    """Base class for all IR instructions."""

    iid: int = field(init=False, default=-1)
    line: int = field(init=False, default=0)

    def defs(self) -> List[Var]:
        return []

    def uses(self) -> List[Var]:
        return []

    def value_uses(self) -> List[Var]:
        """Uses excluding base-pointer uses (thin-slicing semantics)."""
        return self.uses()

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        """Rewrite used variables in place (SSA renaming helper)."""

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        """Rewrite defined variables in place (SSA renaming helper)."""


def _subst(mapping: Dict[Var, Var], v: Optional[Var]) -> Optional[Var]:
    if v is None:
        return None
    return mapping.get(v, v)


@dataclass
class Const(Instruction):
    """``lhs = <literal>`` — string, int, bool, or null (None)."""

    lhs: Var
    value: object

    def defs(self) -> List[Var]:
        return [self.lhs]

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    def __str__(self) -> str:
        return f"{self.lhs} = const {self.value!r}"


@dataclass
class Assign(Instruction):
    """``lhs = rhs`` — register copy."""

    lhs: Var
    rhs: Var

    def defs(self) -> List[Var]:
        return [self.lhs]

    def uses(self) -> List[Var]:
        return [self.rhs]

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.rhs = _subst(mapping, self.rhs)

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass
class BinOp(Instruction):
    """``lhs = left <op> right``; ``+`` on strings is concatenation."""

    lhs: Var
    op: str
    left: Var
    right: Var

    def defs(self) -> List[Var]:
        return [self.lhs]

    def uses(self) -> List[Var]:
        return [self.left, self.right]

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.left = _subst(mapping, self.left)
        self.right = _subst(mapping, self.right)

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.left} {self.op} {self.right}"


@dataclass
class UnOp(Instruction):
    """``lhs = <op> operand``."""

    lhs: Var
    op: str
    operand: Var

    def defs(self) -> List[Var]:
        return [self.lhs]

    def uses(self) -> List[Var]:
        return [self.operand]

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.operand = _subst(mapping, self.operand)

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.op}{self.operand}"


@dataclass
class New(Instruction):
    """``lhs = new C`` — an allocation site.

    The site identity is ``(method.qname, iid)``; constructor invocation
    is a separate ``Call`` with kind ``special``.
    """

    lhs: Var
    class_name: str

    def defs(self) -> List[Var]:
        return [self.lhs]

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    def __str__(self) -> str:
        return f"{self.lhs} = new {self.class_name}"


@dataclass
class NewArray(Instruction):
    """``lhs = new T[length]`` — array allocation site."""

    lhs: Var
    element_type: Type
    length: Optional[Var] = None

    def defs(self) -> List[Var]:
        return [self.lhs]

    def uses(self) -> List[Var]:
        return [self.length] if self.length else []

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.length = _subst(mapping, self.length)

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    def __str__(self) -> str:
        return f"{self.lhs} = new {self.element_type}[{self.length or ''}]"


@dataclass
class Load(Instruction):
    """``lhs = base.field`` — ``base`` is a base-pointer use."""

    lhs: Var
    base: Var
    fld: str

    def defs(self) -> List[Var]:
        return [self.lhs]

    def uses(self) -> List[Var]:
        return [self.base]

    def value_uses(self) -> List[Var]:
        return []

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.base = _subst(mapping, self.base)

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.base}.{self.fld}"


@dataclass
class Store(Instruction):
    """``base.field = rhs`` — ``base`` is a base-pointer use."""

    base: Var
    fld: str
    rhs: Var

    def uses(self) -> List[Var]:
        return [self.base, self.rhs]

    def value_uses(self) -> List[Var]:
        return [self.rhs]

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.base = _subst(mapping, self.base)
        self.rhs = _subst(mapping, self.rhs)

    def __str__(self) -> str:
        return f"{self.base}.{self.fld} = {self.rhs}"


@dataclass
class StaticLoad(Instruction):
    """``lhs = C.field`` — static field read."""

    lhs: Var
    class_name: str
    fld: str

    def defs(self) -> List[Var]:
        return [self.lhs]

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.class_name}.{self.fld}"


@dataclass
class StaticStore(Instruction):
    """``C.field = rhs`` — static field write."""

    class_name: str
    fld: str
    rhs: Var

    def uses(self) -> List[Var]:
        return [self.rhs]

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.rhs = _subst(mapping, self.rhs)

    def __str__(self) -> str:
        return f"{self.class_name}.{self.fld} = {self.rhs}"


# Array contents are collapsed to the single pseudo-field below, the
# standard treatment in inclusion-based pointer analyses.
ARRAY_CONTENTS = "@elems"


@dataclass
class ArrayLoad(Instruction):
    """``lhs = base[index]``; index is a value use, base is not."""

    lhs: Var
    base: Var
    index: Optional[Var] = None

    def defs(self) -> List[Var]:
        return [self.lhs]

    def uses(self) -> List[Var]:
        return [self.base] + ([self.index] if self.index else [])

    def value_uses(self) -> List[Var]:
        return []

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.base = _subst(mapping, self.base)
        self.index = _subst(mapping, self.index)

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.base}[{self.index or ''}]"


@dataclass
class ArrayStore(Instruction):
    """``base[index] = rhs``."""

    base: Var
    rhs: Var
    index: Optional[Var] = None

    def uses(self) -> List[Var]:
        return [self.base, self.rhs] + ([self.index] if self.index else [])

    def value_uses(self) -> List[Var]:
        return [self.rhs]

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.base = _subst(mapping, self.base)
        self.rhs = _subst(mapping, self.rhs)
        self.index = _subst(mapping, self.index)

    def __str__(self) -> str:
        return f"{self.base}[{self.index or ''}] = {self.rhs}"


@dataclass
class Call(Instruction):
    """A method invocation.

    ``kind`` is one of:

    * ``virtual`` — dispatched on the dynamic type of ``receiver``;
    * ``special`` — constructor / non-virtual self call (exact target);
    * ``static``  — no receiver, exact target class.

    ``class_name`` is the static target class (for ``static``/``special``)
    or the declared receiver class if known (may be empty for ``virtual``).
    """

    lhs: Optional[Var]
    kind: str
    class_name: str
    method_name: str
    receiver: Optional[Var]
    args: List[Var]

    def defs(self) -> List[Var]:
        return [self.lhs] if self.lhs else []

    def uses(self) -> List[Var]:
        out = list(self.args)
        if self.receiver:
            out.insert(0, self.receiver)
        return out

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.receiver = _subst(mapping, self.receiver)
        self.args = [_subst(mapping, a) for a in self.args]

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    @property
    def arity(self) -> int:
        return len(self.args)

    def target_id(self) -> str:
        """A human-readable ``Class.method`` string for rule matching."""
        if self.class_name:
            return f"{self.class_name}.{self.method_name}"
        return self.method_name

    def __str__(self) -> str:
        recv = f"{self.receiver}." if self.receiver else (
            f"{self.class_name}." if self.kind == "static" else "")
        lhs = f"{self.lhs} = " if self.lhs else ""
        return f"{lhs}{recv}{self.method_name}({', '.join(self.args)})"


@dataclass
class StringOp(Instruction):
    """A primitive string-carrier operation (paper §4.2.1).

    Inserted by the string modeling pass in place of calls on string
    carriers; ``method`` records the original qualified method name so
    taint rules (e.g. sanitizer matching) still apply, but data flows
    directly from ``args`` to ``lhs`` with no heap involvement.
    """

    lhs: Optional[Var]
    method: str
    args: List[Var]

    def defs(self) -> List[Var]:
        return [self.lhs] if self.lhs else []

    def uses(self) -> List[Var]:
        return list(self.args)

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.args = [_subst(mapping, a) for a in self.args]

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    def __str__(self) -> str:
        lhs = f"{self.lhs} = " if self.lhs else ""
        return f"{lhs}strop[{self.method}]({', '.join(self.args)})"


@dataclass
class Select(Instruction):
    """``lhs = select(a, b, ...)`` — nondeterministic choice.

    Emitted only by model passes (never by the frontend), e.g. a
    dictionary read with a statically unresolvable key selects among the
    values stored under every known key.  The pointer analysis treats it
    as copies from each operand; the SDG treats every operand as a value
    use.
    """

    lhs: Var
    args: List[Var]

    def defs(self) -> List[Var]:
        return [self.lhs]

    def uses(self) -> List[Var]:
        return list(self.args)

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.args = [_subst(mapping, a) for a in self.args]

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    def __str__(self) -> str:
        return f"{self.lhs} = select({', '.join(self.args)})"


@dataclass
class Cast(Instruction):
    """``lhs = (T) value`` — a checked cast.

    Data flows through unchanged; the recorded target type feeds the
    Struts ActionForm model (paper §4.2.2), which inspects casts to learn
    which form subtypes an ``execute`` implementation expects.
    """

    lhs: Var
    type_name: str
    value: Var

    def defs(self) -> List[Var]:
        return [self.lhs]

    def uses(self) -> List[Var]:
        return [self.value]

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.value = _subst(mapping, self.value)

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    def __str__(self) -> str:
        return f"{self.lhs} = ({self.type_name}) {self.value}"


@dataclass
class Return(Instruction):
    """``return [value]`` — block terminator."""

    value: Optional[Var] = None

    def uses(self) -> List[Var]:
        return [self.value] if self.value else []

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.value = _subst(mapping, self.value)

    def __str__(self) -> str:
        return f"return {self.value or ''}".rstrip()


@dataclass
class If(Instruction):
    """``if cond goto then_block else else_block`` — block terminator.

    Thin slicing ignores control dependence, so the condition variable is
    never a taint-relevant use; it is still recorded for completeness.
    """

    cond: Var
    then_block: int = -1
    else_block: int = -1

    def uses(self) -> List[Var]:
        return [self.cond]

    def value_uses(self) -> List[Var]:
        return []

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.cond = _subst(mapping, self.cond)

    def __str__(self) -> str:
        return f"if {self.cond} goto B{self.then_block} else B{self.else_block}"


@dataclass
class Goto(Instruction):
    """Unconditional jump — block terminator."""

    target: int = -1

    def __str__(self) -> str:
        return f"goto B{self.target}"


@dataclass
class Throw(Instruction):
    """``throw var`` — block terminator."""

    value: Var = ""

    def uses(self) -> List[Var]:
        return [self.value] if self.value else []

    def replace_uses(self, mapping: Dict[Var, Var]) -> None:
        self.value = _subst(mapping, self.value)

    def __str__(self) -> str:
        return f"throw {self.value}"


@dataclass
class EnterCatch(Instruction):
    """First instruction of a catch block; defines the exception var.

    The exception modeling pass (paper §4.1.2) treats the value defined
    here as carrying the result of a synthetic ``getMessage`` source.
    """

    lhs: Var
    exc_type: str = "Exception"

    def defs(self) -> List[Var]:
        return [self.lhs]

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    def __str__(self) -> str:
        return f"{self.lhs} = catch {self.exc_type}"


@dataclass
class Phi(Instruction):
    """SSA phi node: ``lhs = phi(pred_block -> var, ...)``."""

    lhs: Var
    operands: Dict[int, Var] = field(default_factory=dict)

    def defs(self) -> List[Var]:
        return [self.lhs]

    def uses(self) -> List[Var]:
        return list(self.operands.values())

    def replace_defs(self, mapping: Dict[Var, Var]) -> None:
        self.lhs = _subst(mapping, self.lhs)

    def __str__(self) -> str:
        ops = ", ".join(f"B{b}:{v}" for b, v in sorted(self.operands.items()))
        return f"{self.lhs} = phi({ops})"


TERMINATORS = (Return, If, Goto, Throw)


def is_terminator(instr: Instruction) -> bool:
    return isinstance(instr, TERMINATORS)
