"""Exception modeling for information-leakage detection (paper §4.1.2).

For every caught exception TAJ synthesizes a call to ``getMessage`` and
marks it as a source.  We insert, right after each ``EnterCatch``:

    %exmsg = e.getMessage()        // a registered INFO_LEAK source
    e.message = %exmsg             // the exception becomes a taint carrier

The second statement makes ``resp.getWriter().println(e)`` — the
(unfortunately) common idiom from the paper — reach the sink via
taint-carrier detection, while a direct ``println(e.getMessage())`` flows
through plain local tracking.

Runs before SSA construction.
"""

from __future__ import annotations

from typing import List

from ..ir import Call, EnterCatch, Instruction, Method, Program, Store


def rewrite_method(method: Method) -> int:
    if method.is_native:
        return 0
    inserted = 0
    counter = 0
    for block in method.blocks.values():
        before = inserted
        out: List[Instruction] = []
        for instr in block.instrs:
            out.append(instr)
            if isinstance(instr, EnterCatch):
                tmp = f"%exmsg{counter}"
                counter += 1
                method.var_types.setdefault(tmp, "String")
                call = Call(tmp, "virtual", "Exception", "getMessage",
                            instr.lhs, [])
                call.iid = method.fresh_iid()
                call.line = instr.line
                store = Store(instr.lhs, "message", tmp)
                store.iid = method.fresh_iid()
                store.line = instr.line
                out.extend([call, store])
                inserted += 1
        if inserted != before:
            block.instrs = out
    return inserted


def rewrite_program(program: Program) -> int:
    """Insert synthetic exception sources program-wide (skip the model
    library itself: catches inside library code are not user-observable
    leak points)."""
    total = 0
    for cls in program.application_classes():
        for method in cls.methods.values():
            total += rewrite_method(method)
    return total
