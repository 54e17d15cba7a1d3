"""Program structure: basic blocks, methods, classes, whole programs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .instructions import (Call, Goto, If, Instruction, Phi, Return, Throw,
                           Var, is_terminator)
from .types import Type, VOID


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator.

    Successor edges are stored explicitly (``succs``) and kept consistent
    with the terminator by :meth:`Method.finish`.
    """

    bid: int
    instrs: List[Instruction] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instrs and is_terminator(self.instrs[-1]):
            return self.instrs[-1]
        return None

    def phis(self) -> List[Phi]:
        return [i for i in self.instrs if isinstance(i, Phi)]

    def non_phis(self) -> List[Instruction]:
        return [i for i in self.instrs if not isinstance(i, Phi)]


@dataclass
class Param:
    """A formal parameter."""

    name: Var
    type: Type


class Method:
    """A method body as a CFG of basic blocks.

    ``qname`` is ``Class.name/arity`` and uniquely identifies the method
    in the program; it is the unit of call-graph nodes, pointer-analysis
    cloning, and SDG partitioning.
    """

    def __init__(self, class_name: str, name: str, params: List[Param],
                 return_type: Type = VOID, is_static: bool = False,
                 is_native: bool = False, line: int = 0) -> None:
        self.class_name = class_name
        self.name = name
        self.params = params
        self.return_type = return_type
        self.is_static = is_static
        self.is_native = is_native
        self.line = line
        self.blocks: Dict[int, BasicBlock] = {}
        self.entry_block = 0
        self._next_iid = 0
        self._next_bid = 0
        self.is_synthetic = False
        # Best-effort static types for locals, keyed by the pre-SSA
        # variable name (SSA versions share their base name's type).
        # Filled by the frontend; consumed by the modeling passes.
        self.var_types: Dict[Var, str] = {}

    def type_of(self, var: Var) -> Optional[str]:
        """Declared/inferred type name of a variable (SSA-version aware)."""
        if var in self.var_types:
            return self.var_types[var]
        if "." in var:
            base, _, ver = var.rpartition(".")
            if ver.isdigit():
                return self.var_types.get(base)
        return None

    # -- construction -----------------------------------------------------

    def new_block(self) -> BasicBlock:
        block = BasicBlock(self._next_bid)
        self.blocks[block.bid] = block
        self._next_bid += 1
        return block

    def append(self, block: BasicBlock, instr: Instruction,
               line: int = 0) -> Instruction:
        """Append ``instr`` to ``block``, assigning its method-unique iid."""
        instr.iid = self._next_iid
        instr.line = line
        self._next_iid += 1
        block.instrs.append(instr)
        return instr

    def fresh_iid(self) -> int:
        iid = self._next_iid
        self._next_iid += 1
        return iid

    def finish(self) -> None:
        """Derive succ/pred edges from terminators.

        Lowering terminates every reachable block explicitly; block ids
        carry no fallthrough meaning (they are allocated out of order
        around try/catch), so an unterminated block simply returns.
        """
        bids = sorted(self.blocks)
        for block in self.blocks.values():
            block.succs = []
            block.preds = []
        for bid in bids:
            block = self.blocks[bid]
            term = block.terminator
            if term is None:
                self.append(block, Return(None))
                term = block.terminator
            if isinstance(term, Goto):
                block.succs = [term.target]
            elif isinstance(term, If):
                block.succs = [term.then_block, term.else_block]
            elif isinstance(term, (Return, Throw)):
                block.succs = []
        # Prune blocks unreachable from the entry (produced by lowering
        # after break/continue/return) so SSA meets only reachable code.
        reachable = {self.entry_block}
        stack = [self.entry_block]
        while stack:
            for succ in self.blocks[stack.pop()].succs:
                if succ not in reachable:
                    reachable.add(succ)
                    stack.append(succ)
        self.blocks = {bid: b for bid, b in self.blocks.items()
                       if bid in reachable}
        for block in self.blocks.values():
            for succ in block.succs:
                self.blocks[succ].preds.append(block.bid)

    # -- queries ----------------------------------------------------------

    @property
    def qname(self) -> str:
        return f"{self.class_name}.{self.name}/{len(self.params)}"

    @property
    def display_name(self) -> str:
        return f"{self.class_name}.{self.name}"

    def param_names(self) -> List[Var]:
        return [p.name for p in self.params]

    def instructions(self) -> Iterator[Instruction]:
        for bid in sorted(self.blocks):
            for instr in self.blocks[bid].instrs:
                yield instr

    def instructions_with_blocks(self) -> Iterator[Tuple[BasicBlock, Instruction]]:
        for bid in sorted(self.blocks):
            block = self.blocks[bid]
            for instr in block.instrs:
                yield block, instr

    def calls(self) -> Iterator[Call]:
        for instr in self.instructions():
            if isinstance(instr, Call):
                yield instr

    def returns(self) -> Iterator[Return]:
        for instr in self.instructions():
            if isinstance(instr, Return):
                yield instr

    def instruction_count(self) -> int:
        return sum(len(b.instrs) for b in self.blocks.values())

    def __repr__(self) -> str:
        return f"<Method {self.qname}>"


@dataclass
class FieldDecl:
    """A field declaration."""

    name: str
    type: Type
    is_static: bool = False


class ClassDecl:
    """A class or interface declaration.

    ``is_library`` marks code that belongs to supporting libraries rather
    than the application under analysis; the distinction drives both the
    whitelist code-reduction (paper §4.2.1) and LCP computation (§5).
    """

    def __init__(self, name: str, super_name: Optional[str] = "Object",
                 interfaces: Optional[List[str]] = None,
                 is_interface: bool = False, is_library: bool = False,
                 line: int = 0) -> None:
        self.name = name
        self.super_name = super_name if name != "Object" else None
        self.interfaces = interfaces or []
        self.is_interface = is_interface
        self.is_library = is_library
        self.line = line
        self.fields: Dict[str, FieldDecl] = {}
        # Keyed by (name, arity); jlang supports overloading on arity only.
        self.methods: Dict[Tuple[str, int], Method] = {}

    def add_field(self, fld: FieldDecl) -> None:
        self.fields[fld.name] = fld

    def add_method(self, method: Method) -> None:
        self.methods[(method.name, len(method.params))] = method

    def get_method(self, name: str, arity: int) -> Optional[Method]:
        return self.methods.get((name, arity))

    def __repr__(self) -> str:
        kind = "interface" if self.is_interface else "class"
        return f"<{kind} {self.name}>"


class Program:
    """A whole program: all classes, plus analysis entrypoints.

    Entrypoints are method qnames; for web applications they are the
    servlet ``doGet``/``doPost`` methods and framework-dispatched methods
    discovered by the Struts/EJB models.
    """

    def __init__(self) -> None:
        self.classes: Dict[str, ClassDecl] = {}
        self.entrypoints: List[str] = []
        # Deployment metadata consumed by framework models (paper §4.2.2):
        # maps an EJB JNDI name to its implementing bean class.
        self.deployment_descriptor: Dict[str, str] = {}

    def add_class(self, cls: ClassDecl) -> None:
        if cls.name in self.classes:
            raise ValueError(f"duplicate class {cls.name}")
        self.classes[cls.name] = cls

    def get_class(self, name: str) -> Optional[ClassDecl]:
        return self.classes.get(name)

    def methods(self) -> Iterator[Method]:
        for cls in self.classes.values():
            for method in cls.methods.values():
                yield method

    def lookup_method(self, qname: str) -> Optional[Method]:
        """Find a method by its ``Class.name/arity`` qname."""
        if "/" not in qname:
            return None
        rest, arity_s = qname.rsplit("/", 1)
        if "." not in rest:
            return None
        class_name, name = rest.rsplit(".", 1)
        cls = self.classes.get(class_name)
        if cls is None:
            return None
        return cls.get_method(name, int(arity_s))

    def application_classes(self) -> Iterator[ClassDecl]:
        for cls in self.classes.values():
            if not cls.is_library:
                yield cls

    def library_classes(self) -> Iterator[ClassDecl]:
        for cls in self.classes.values():
            if cls.is_library:
                yield cls

    def is_application_method(self, method: Method) -> bool:
        cls = self.classes.get(method.class_name)
        return cls is not None and not cls.is_library

    def stats(self) -> Dict[str, int]:
        """Raw size statistics (feeds the Table 2 reproduction)."""
        app_classes = list(self.application_classes())
        lib_classes = list(self.library_classes())
        app_methods = sum(len(c.methods) for c in app_classes)
        lib_methods = sum(len(c.methods) for c in lib_classes)
        app_instrs = sum(m.instruction_count()
                         for c in app_classes for m in c.methods.values())
        lib_instrs = sum(m.instruction_count()
                         for c in lib_classes for m in c.methods.values())
        return {
            "app_classes": len(app_classes),
            "total_classes": len(self.classes),
            "app_methods": app_methods,
            "total_methods": app_methods + lib_methods,
            "app_instructions": app_instrs,
            "total_instructions": app_instrs + lib_instrs,
        }

    def merge(self, other: "Program") -> None:
        """Merge another program's classes into this one (library linking)."""
        for cls in other.classes.values():
            if cls.name not in self.classes:
                self.classes[cls.name] = cls
        self.entrypoints.extend(
            e for e in other.entrypoints if e not in self.entrypoints)
        self.deployment_descriptor.update(other.deployment_descriptor)
