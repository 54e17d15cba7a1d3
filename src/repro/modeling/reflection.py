"""Reflection modeling (paper §4.2.3).

"When the value of an argument to a reflection API can be inferred (for
example, when it is constant), the system synthesizes a relevant
abstraction in place of the reflective call."

This pass runs after SSA construction and constant propagation.  Per
method it computes a small abstract domain over SSA variables:

* ``CLS(K)``      — a ``Class`` object for the constant class name K
                    (from ``Class.forName("K")``);
* ``METHODS(K)``  — the array returned by ``getMethods()`` on CLS(K);
* ``METHOD(K)``   — an element of METHODS(K), or the result of
                    ``getMethod`` (with its name when constant);

and a per-method *name filter*: the set of string constants compared
(via ``String.equals``) against ``getName()`` results — the idiom of the
paper's motivating example, where a loop scans ``getMethods()`` for the
method named ``"id"``.

With these, ``m.invoke(recv, args)`` is replaced by direct virtual
calls to every candidate method (name-filtered when a filter exists,
arity-filtered by the argument array's statically known length), and
``Class.newInstance()`` by a direct allocation.  Unresolvable reflective
calls keep their conservative native summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..ir import (ArrayLoad, ArrayStore, Assign, Call, Cast, Instruction,
                  Method, New, NewArray, Phi, Program, Select, StringOp, Var)
from ..ssa import ConstantValues, SSAInfo


@dataclass(frozen=True)
class _Abs:
    """Abstract reflective value: kind in {cls, methods, method}."""

    kind: str
    class_name: str
    method_name: Optional[str] = None   # for getMethod with constant name


def is_for_name(instr: Instruction) -> bool:
    """A ``Class.forName`` call: every abstract value starts at one, so
    a method without one is never rewritten."""
    return isinstance(instr, Call) and instr.kind == "static" and \
        instr.class_name == "Class" and instr.method_name == "forName" \
        and instr.arity == 1


class ReflectionResolver:
    """Resolves reflective calls within one method."""

    def __init__(self, program: Program, method: Method, ssa: SSAInfo,
                 constants: ConstantValues) -> None:
        self.program = program
        self.method = method
        self.ssa = ssa
        self.constants = constants
        self.values: Dict[Var, _Abs] = {}
        self.name_filter: Set[str] = set()
        # array variable -> number of ArrayStores observed on it
        self.array_lengths: Dict[Var, int] = {}
        self.resolved = 0

    # -- abstract interpretation ------------------------------------------------

    def _transfer(self, instr: Instruction) -> Optional[_Abs]:
        if isinstance(instr, Call):
            if is_for_name(instr):
                name = self.constants.string_constant_of(instr.args[0])
                if name is not None and name in self.program.classes:
                    return _Abs("cls", name)
            if instr.kind == "virtual" and instr.receiver:
                recv = self.values.get(instr.receiver)
                if recv is not None and recv.kind == "cls":
                    if instr.method_name == "getMethods":
                        return _Abs("methods", recv.class_name)
                    if instr.method_name == "getMethod" and instr.arity == 1:
                        name = self.constants.string_constant_of(
                            instr.args[0])
                        return _Abs("method", recv.class_name, name)
            return None
        if isinstance(instr, (Assign, Cast)):
            src = instr.rhs if isinstance(instr, Assign) else instr.value
            return self.values.get(src)
        if isinstance(instr, ArrayLoad):
            base = self.values.get(instr.base)
            if base is not None and base.kind == "methods":
                return _Abs("method", base.class_name)
            return None
        if isinstance(instr, (Phi, Select)):
            operands = (list(instr.operands.values())
                        if isinstance(instr, Phi) else instr.args)
            met: Optional[_Abs] = None
            for op in operands:
                val = self.values.get(op)
                if val is None:
                    continue
                if met is None:
                    met = val
                elif met != val:
                    return None
            return met
        return None

    def _analyze(self) -> None:
        instrs = list(self.method.instructions())
        changed = True
        while changed:
            changed = False
            for instr in instrs:
                defs = instr.defs()
                if not defs:
                    continue
                val = self._transfer(instr)
                if val is not None and self.values.get(defs[0]) != val:
                    self.values[defs[0]] = val
                    changed = True
        # Name filter: constants compared against getName() results.
        name_results: Set[Var] = set()
        for instr in instrs:
            if isinstance(instr, Call) and instr.kind == "virtual" and \
                    instr.method_name == "getName" and instr.receiver and \
                    self.values.get(instr.receiver, _Abs("", "")).kind == \
                    "method" and instr.lhs:
                name_results.add(instr.lhs)
        for instr in instrs:
            if isinstance(instr, StringOp) and \
                    instr.method.endswith(".equals") and len(instr.args) == 2:
                for a, b in ((instr.args[0], instr.args[1]),
                             (instr.args[1], instr.args[0])):
                    if a in name_results:
                        const = self.constants.string_constant_of(b)
                        if const is not None:
                            self.name_filter.add(const)
        for instr in instrs:
            if isinstance(instr, ArrayStore):
                self.array_lengths[instr.base] = \
                    self.array_lengths.get(instr.base, 0) + 1
            elif isinstance(instr, NewArray):
                self.array_lengths.setdefault(instr.lhs, 0)

    # -- rewriting ------------------------------------------------------------

    def _candidates(self, abs_val: _Abs,
                    arity: Optional[int]) -> List[Method]:
        cls = self.program.get_class(abs_val.class_name)
        if cls is None:
            return []
        out: List[Method] = []
        for (name, n), target in sorted(cls.methods.items()):
            if name == "<init>" or target.is_static:
                continue
            if abs_val.method_name is not None and \
                    name != abs_val.method_name:
                continue
            if abs_val.method_name is None and self.name_filter and \
                    name not in self.name_filter:
                continue
            if arity is not None and n != arity:
                continue
            out.append(target)
        return out

    def _rewrite_invoke(self, call: Call) -> Optional[List[Instruction]]:
        abs_val = self.values.get(call.receiver or "")
        if abs_val is None or abs_val.kind != "method" or call.arity != 2:
            return None
        recv_var, arr_var = call.args
        arity = self.array_lengths.get(arr_var)
        candidates = self._candidates(abs_val, arity)
        if not candidates:
            return None
        instrs: List[Instruction] = []
        results: List[Var] = []
        for j, target in enumerate(candidates):
            arg_temps: List[Var] = []
            for i in range(len(target.params)):
                tmp = f"%rf{call.iid}_{j}_{i}"
                load = ArrayLoad(tmp, arr_var)
                load.iid = self.method.fresh_iid()
                load.line = call.line
                instrs.append(load)
                arg_temps.append(tmp)
            ret = f"%rfr{call.iid}_{j}" if call.lhs else None
            direct = Call(ret, "virtual", abs_val.class_name,
                          target.name, recv_var, arg_temps)
            direct.iid = call.iid if j == 0 else self.method.fresh_iid()
            direct.line = call.line
            instrs.append(direct)
            if ret:
                results.append(ret)
        if call.lhs:
            select = Select(call.lhs, results)
            select.iid = self.method.fresh_iid()
            select.line = call.line
            instrs.append(select)
        return instrs

    def _rewrite_new_instance(self, call: Call) -> Optional[List[Instruction]]:
        abs_val = self.values.get(call.receiver or "")
        if abs_val is None or abs_val.kind != "cls" or not call.lhs:
            return None
        cls = self.program.get_class(abs_val.class_name)
        if cls is None or cls.is_interface:
            return None
        alloc = New(call.lhs, abs_val.class_name)
        alloc.iid = call.iid
        alloc.line = call.line
        instrs: List[Instruction] = [alloc]
        if cls.get_method("<init>", 0) is not None:
            ctor = Call(None, "special", abs_val.class_name, "<init>",
                        call.lhs, [])
            ctor.iid = self.method.fresh_iid()
            ctor.line = call.line
            instrs.append(ctor)
        return instrs

    def run(self) -> int:
        self._analyze()
        if not self.values:
            return 0
        for block in self.method.blocks.values():
            before = self.resolved
            out: List[Instruction] = []
            for instr in block.instrs:
                replacement: Optional[List[Instruction]] = None
                if isinstance(instr, Call) and instr.kind == "virtual":
                    if instr.method_name == "invoke":
                        replacement = self._rewrite_invoke(instr)
                    elif instr.method_name == "newInstance" and \
                            instr.arity == 0:
                        replacement = self._rewrite_new_instance(instr)
                if replacement is None:
                    out.append(instr)
                else:
                    out.extend(replacement)
                    self.resolved += 1
            if self.resolved != before:
                block.instrs = out
        return self.resolved


def rewrite_methods(program: Program, methods: List[Method],
                    ssa_by_method: Dict[str, SSAInfo],
                    constants_by_method: Dict[str, ConstantValues]) -> int:
    """Resolve reflection in ``methods``; returns number of rewritten
    calls."""
    total = 0
    for method in methods:
        if method.is_native:
            continue
        ssa = ssa_by_method.get(method.qname)
        constants = constants_by_method.get(method.qname)
        if ssa is None or constants is None:
            continue
        total += ReflectionResolver(program, method, ssa, constants).run()
    return total
