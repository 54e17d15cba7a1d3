"""Structural IR validation.

Run after lowering and after every IR-rewriting model pass; catching a
malformed CFG here is vastly cheaper than debugging a silently wrong
pointer-analysis result downstream.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from .instructions import Phi, is_terminator
from .program import Method, Program


class ValidationError(Exception):
    """Raised when a method body violates an IR invariant."""


def validate_method(method: Method) -> List[str]:
    """Return a list of invariant violations (empty means valid)."""
    problems: List[str] = []
    if method.is_native:
        if method.blocks:
            problems.append(f"{method.qname}: native method has a body")
        return problems
    if method.entry_block not in method.blocks:
        problems.append(f"{method.qname}: missing entry block")
        return problems
    seen_iids = set()
    for bid, block in method.blocks.items():
        if bid != block.bid:
            problems.append(f"{method.qname}: block key/id mismatch B{bid}")
        if not block.instrs:
            problems.append(f"{method.qname}: empty block B{bid}")
            continue
        for idx, instr in enumerate(block.instrs):
            if instr.iid in seen_iids:
                problems.append(
                    f"{method.qname}: duplicate iid {instr.iid} in B{bid}")
            seen_iids.add(instr.iid)
            last = idx == len(block.instrs) - 1
            if is_terminator(instr) and not last:
                problems.append(
                    f"{method.qname}: terminator mid-block in B{bid}")
            if isinstance(instr, Phi) and idx > 0 and \
                    not isinstance(block.instrs[idx - 1], Phi):
                problems.append(
                    f"{method.qname}: phi after non-phi in B{bid}")
        if block.terminator is None:
            problems.append(f"{method.qname}: B{bid} lacks a terminator")
        for succ in block.succs:
            if succ not in method.blocks:
                problems.append(
                    f"{method.qname}: B{bid} -> missing block B{succ}")
    return problems


def validate_program(program: Program,
                     methods: Optional[Iterable[Method]] = None) -> None:
    """Validate ``methods`` (default: every method of the program) and
    the entrypoints; raise :class:`ValidationError` on failure."""
    problems: List[str] = []
    for method in program.methods() if methods is None else methods:
        problems.extend(validate_method(method))
    for entry in program.entrypoints:
        if program.lookup_method(entry) is None:
            problems.append(f"entrypoint {entry} does not resolve")
    if problems:
        raise ValidationError("; ".join(problems[:20]))
