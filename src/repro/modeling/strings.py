"""String-carrier modeling (paper §4.2.1).

Rewrites every call on a string carrier (``String``, ``StringBuffer``,
``StringBuilder``) into a primitive :class:`~repro.ir.StringOp` so that

* string values never enter the heap during pointer analysis, and
* taint flows through string manipulation as direct local def-use.

Builder mutators (``append``/``insert``) reassign the receiver variable,
which is why this pass runs **before** SSA construction: SSA then
versions the receiver naturally and a later ``toString`` sees the
appended value.  The known approximation (shared with TAJ's model):
mutation through a second alias of the same builder is not observed.
"""

from __future__ import annotations

from typing import List

from ..ir import (Assign, Call, Const, Instruction, Method, New, Program,
                  StringOp)
from .stdlib import STRING_CARRIERS

# Static methods rewritten into StringOps: (class, method).
_STATIC_STRING_OPS = {
    ("String", "valueOf"),
    ("String", "format"),
}

_MUTATORS = {"append", "insert"}


def _is_carrier_static(call: Call) -> bool:
    return call.kind == "static" and \
        (call.class_name, call.method_name) in _STATIC_STRING_OPS


def rewrite_method(method: Method) -> int:
    """Rewrite string-carrier operations in one method; returns count.

    Only the blocks that hold such an operation get a new instruction
    list."""
    if method.is_native:
        return 0
    rewritten = 0
    counter = 0

    def fresh() -> str:
        nonlocal counter
        var = f"%str{counter}"
        counter += 1
        return var

    for block in method.blocks.values():
        before = rewritten
        out: List[Instruction] = []
        for instr in block.instrs:
            if isinstance(instr, New) and \
                    instr.class_name in STRING_CARRIERS:
                # Allocation of a carrier becomes an empty string value;
                # the constructor call (rewritten below) redefines it.
                const = Const(instr.lhs, "")
                const.iid = instr.iid
                const.line = instr.line
                out.append(const)
                rewritten += 1
                continue
            if not isinstance(instr, Call):
                out.append(instr)
                continue
            recv_type = (method.type_of(instr.receiver)
                         if instr.receiver else None)
            if instr.kind == "special" and \
                    instr.class_name in STRING_CARRIERS:
                # Constructor: receiver var takes the constructed value.
                op = StringOp(instr.receiver,
                              f"{instr.class_name}.<init>",
                              list(instr.args))
                op.iid = instr.iid
                op.line = instr.line
                out.append(op)
                rewritten += 1
                continue
            if instr.kind == "virtual" and recv_type in STRING_CARRIERS:
                display = f"{recv_type}.{instr.method_name}"
                args = [instr.receiver] + list(instr.args)
                mutator = (instr.method_name in _MUTATORS and
                           recv_type in ("StringBuffer", "StringBuilder"))
                if mutator and instr.receiver != "this":
                    tmp = fresh()
                    method.var_types.setdefault(tmp, recv_type)
                    op = StringOp(tmp, display, args)
                    op.iid = instr.iid
                    op.line = instr.line
                    out.append(op)
                    back = Assign(instr.receiver, tmp)
                    back.iid = method.fresh_iid()
                    back.line = instr.line
                    out.append(back)
                    if instr.lhs:
                        fwd = Assign(instr.lhs, tmp)
                        fwd.iid = method.fresh_iid()
                        fwd.line = instr.line
                        out.append(fwd)
                else:
                    op = StringOp(instr.lhs, display, args)
                    op.iid = instr.iid
                    op.line = instr.line
                    out.append(op)
                rewritten += 1
                continue
            if _is_carrier_static(instr):
                op = StringOp(instr.lhs,
                              f"{instr.class_name}.{instr.method_name}",
                              list(instr.args))
                op.iid = instr.iid
                op.line = instr.line
                out.append(op)
                rewritten += 1
                continue
            out.append(instr)
        if rewritten != before:
            block.instrs = out
    return rewritten


def rewrite_program(program: Program) -> int:
    """Apply the string-carrier rewrite to every method."""
    total = 0
    for method in program.methods():
        total += rewrite_method(method)
    return total
