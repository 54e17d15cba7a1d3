"""SSA construction in one forward walk (Braun et al., "Simple and
Efficient Construction of Static Single Assignment Form", CC 2013).

After :func:`to_ssa`, every variable in a method body has exactly one
definition.  Renamed versions are ``name.1``, ``name.2`` ...; version 0
(``name.0``) is the implicit "undefined at entry" value.  Parameters and
``this`` keep their original names (they are defined at entry).

The walk visits the blocks in reverse postorder.  A use reads its
variable's current version in the block; a block that has none asks its
predecessors, and a phi is created only where paths meet.  A block
entered by an edge not yet walked (a loop header) is *unsealed*: its
phis get their operands once that back edge has been walked.  A phi left
with one distinct operand besides itself is removed at the end.  A
straight-line body never asks a predecessor, so it is renamed in the
single pass that also records its def-use information.

The SSA form gives TAJ's pointer analysis its measure of flow sensitivity
for local points-to sets (paper §3.1, citing Hasti & Horwitz), and makes
the local data-dependence edges of the no-heap SDG a pure def-use lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..ir import Instruction, Method, Phi, Var
from .cfg import reverse_postorder


@dataclass
class SSAInfo:
    """Def-use information for a method in SSA form."""

    def_site: Dict[Var, Instruction] = field(default_factory=dict)
    uses: Dict[Var, List[Instruction]] = field(default_factory=dict)


class _Walk:
    """The state of one :func:`to_ssa` walk.

    Kept on an object rather than in closures: ``read`` and ``fill`` call
    each other, and closures doing so would form a reference cycle that
    only the cyclic garbage collector frees.
    """

    __slots__ = ("blocks", "def_site", "uses", "entry_defined", "counters",
                 "live", "unsealed", "phis")

    def __init__(self, method: Method, info: SSAInfo) -> None:
        self.blocks = method.blocks
        self.def_site, self.uses = info.def_site, info.uses
        self.entry_defined = set(method.param_names())
        if not method.is_static:
            self.entry_defined.add("this")
        self.counters: Dict[Var, int] = {}
        # Walked blocks -> var -> the version live at the block's end
        # (for the block being walked: at the current instruction).
        self.live: Dict[int, Dict[Var, Var]] = {}
        # Unsealed blocks -> their phis still waiting for operands.
        self.unsealed: Dict[int, List[Tuple[Var, Phi]]] = {}
        self.phis: Dict[int, List[Phi]] = {}

    def fresh(self, var: Var) -> Var:
        counters = self.counters
        counters[var] = version = counters.get(var, 0) + 1
        return f"{var}.{version}"

    def new_phi(self, var: Var, bid: int) -> Phi:
        phi = Phi(self.fresh(var))
        self.def_site[phi.lhs] = phi
        self.phis.setdefault(bid, []).append(phi)
        return phi

    def fill(self, phi: Phi, var: Var, bid: int) -> None:
        uses = self.uses
        for pred in self.blocks[bid].preds:
            value = phi.operands[pred] = self.read(var, pred)
            uses.setdefault(value, []).append(phi)

    def read(self, var: Var, bid: int) -> Var:
        """The version of ``var`` live at the end of walked block ``bid``.

        A block without one takes its single predecessor's, or gets a
        phi.  The search runs on an explicit stack, so long chains of
        joins stay off the Python stack; it only meets walked blocks,
        because a sealed block's predecessors have all been walked.
        """
        live, blocks, unsealed = self.live, self.blocks, self.unsealed
        value = live[bid].get(var)
        if value is not None:
            return value
        joins: List[Tuple[Phi, int]] = []
        stack = [bid]
        while stack:
            cur = stack.pop()
            here = live[cur]
            if var in here:
                continue
            preds = blocks[cur].preds
            if not preds:
                here[var] = var if var in self.entry_defined \
                    else f"{var}.0"
            elif len(preds) == 1 and cur not in unsealed:
                value = live[preds[0]].get(var)
                if value is None:
                    stack += (cur, preds[0])
                else:
                    here[var] = value
            else:
                phi = self.new_phi(var, cur)
                here[var] = phi.lhs
                if cur in unsealed:
                    unsealed[cur].append((var, phi))
                else:
                    joins.append((phi, cur))
                    stack += preds
        for phi, cur in joins:
            self.fill(phi, var, cur)
        return live[bid][var]


def to_ssa(method: Method) -> SSAInfo:
    """Convert ``method`` to SSA form in place and return def-use info."""
    info = SSAInfo()
    if method.is_native or not method.blocks:
        return info
    blocks = method.blocks
    def_site, uses = info.def_site, info.uses
    walk = _Walk(method, info)
    live, unsealed, phis = walk.live, walk.unsealed, walk.phis
    read, fresh = walk.read, walk.fresh

    for bid in reverse_postorder(method):
        block = blocks[bid]
        if any(pred not in live for pred in block.preds):
            unsealed[bid] = []
        here = live[bid] = {}
        for instr in block.instrs:
            used = instr.uses()
            if used:
                renamed = {}
                for var in used:
                    value = here.get(var) or read(var, bid)
                    renamed[var] = value
                    uses.setdefault(value, []).append(instr)
                instr.replace_uses(renamed)
            for var in instr.defs():
                here[var] = value = fresh(var)
                instr.replace_defs({var: value})
                def_site[value] = instr
        for succ in block.succs:
            waiting = unsealed.get(succ)
            if waiting is not None and \
                    all(pred in live for pred in blocks[succ].preds):
                del unsealed[succ]
                for var, phi in waiting:
                    walk.fill(phi, var, succ)

    # Remove the phis whose operands, besides the phi itself, are one
    # value; their users (and any phi among them) move to that value.
    work = [phi for block_phis in phis.values() for phi in block_phis]
    while work:
        phi = work.pop()
        name = phi.lhs
        if name not in def_site:
            continue            # already removed
        others = set(phi.operands.values())
        others.discard(name)
        if len(others) != 1:
            continue
        (same,) = others
        del def_site[name]
        uses[same] = [user for user in uses[same] if user is not phi]
        for user in uses.pop(name, ()):
            if user is phi:
                continue
            if isinstance(user, Phi):
                for pred, value in user.operands.items():
                    if value == name:
                        user.operands[pred] = same
                work.append(user)
            else:
                user.replace_uses({name: same})
            uses[same].append(user)

    for bid, block_phis in phis.items():
        kept = [phi for phi in block_phis if phi.lhs in def_site]
        for phi in kept:
            phi.iid = method.fresh_iid()
        blocks[bid].instrs[:0] = kept
    return info


def program_to_ssa(program) -> Dict[str, SSAInfo]:
    """Convert every method of a program to SSA; map qname -> SSAInfo."""
    out: Dict[str, SSAInfo] = {}
    for method in program.methods():
        out[method.qname] = to_ssa(method)
    return out
