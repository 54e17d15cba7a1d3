"""Cytron et al.'s SSA construction, kept as a differential oracle.

This is ``repro.ssa.construct.to_ssa`` as it was before the single
forward walk replaced it: a dominator tree (Cooper, Harvey & Kennedy's
iterative algorithm over reverse postorder), phi placement over iterated
dominance frontiers, renaming along the dominator tree with explicit
stacks, and a fixed-point pass that drops phis with zero uses.  That
pass keeps a cycle of phis that only use each other, so the oracle can
hold dead phis the walk never creates.  Tests compare the two
(``tests/ssa/test_ssa_differential.py``,
``tests/property/test_ssa_props.py``); nothing under ``src/`` imports
it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir import Method, Phi, Var
from repro.ir.printer import format_method
from repro.ssa import SSAInfo, reverse_postorder


class DominatorTree:
    """Immediate dominators and dominance frontiers for one method."""

    def __init__(self, method: Method) -> None:
        self.method = method
        self.rpo = reverse_postorder(method)
        self._rpo_index = {bid: i for i, bid in enumerate(self.rpo)}
        self.idom: Dict[int, Optional[int]] = {}
        self.frontier: Dict[int, Set[int]] = {}
        self.children: Dict[int, List[int]] = {}
        self._compute_idoms()
        self._compute_frontiers()

    def _intersect(self, b1: int, b2: int) -> int:
        idx = self._rpo_index
        while b1 != b2:
            while idx[b1] > idx[b2]:
                b1 = self.idom[b1]  # type: ignore[assignment]
            while idx[b2] > idx[b1]:
                b2 = self.idom[b2]  # type: ignore[assignment]
        return b1

    def _compute_idoms(self) -> None:
        entry = self.method.entry_block
        self.idom = {bid: None for bid in self.rpo}
        self.idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for bid in self.rpo:
                if bid == entry:
                    continue
                preds = [p for p in self.method.blocks[bid].preds
                         if self.idom.get(p) is not None]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = self._intersect(pred, new_idom)
                if self.idom[bid] != new_idom:
                    self.idom[bid] = new_idom
                    changed = True
        self.children = {bid: [] for bid in self.rpo}
        for bid in self.rpo:
            if bid != entry and self.idom[bid] is not None:
                self.children[self.idom[bid]].append(bid)  # type: ignore

    def _compute_frontiers(self) -> None:
        self.frontier = {bid: set() for bid in self.rpo}
        for bid in self.rpo:
            preds = self.method.blocks[bid].preds
            if len(preds) < 2:
                continue
            for pred in preds:
                if pred not in self._rpo_index:
                    continue
                runner = pred
                while runner != self.idom[bid]:
                    self.frontier[runner].add(bid)
                    nxt = self.idom[runner]
                    if nxt is None or nxt == runner and runner != \
                            self.method.entry_block:
                        break
                    if nxt == runner:
                        break
                    runner = nxt

    def dominates(self, a: int, b: int) -> bool:
        """True if block ``a`` dominates block ``b``."""
        entry = self.method.entry_block
        cur: Optional[int] = b
        while cur is not None:
            if cur == a:
                return True
            if cur == entry:
                return False
            cur = self.idom[cur]
        return False

    def dom_tree_preorder(self) -> List[int]:
        """Dominator-tree preorder starting at the entry block."""
        order: List[int] = []
        stack = [self.method.entry_block]
        while stack:
            bid = stack.pop()
            order.append(bid)
            stack.extend(reversed(self.children.get(bid, [])))
        return order


def reference_to_ssa(method: Method) -> SSAInfo:
    """Convert ``method`` to SSA form in place (Cytron et al.) and return
    def-use info."""
    if method.is_native or not method.blocks:
        return SSAInfo()
    dom = DominatorTree(method)

    # 1. Collect assignment sites per variable.
    def_blocks: Dict[Var, Set[int]] = {}
    all_vars: Set[Var] = set()
    for bid, block in method.blocks.items():
        for instr in block.instrs:
            for var in instr.defs():
                def_blocks.setdefault(var, set()).add(bid)
                all_vars.add(var)
            all_vars.update(instr.uses())

    entry_defined = set(method.param_names())
    if not method.is_static:
        entry_defined.add("this")

    # 2. Place phi nodes using iterated dominance frontiers.
    phis_in_block: Dict[int, List[Tuple[Var, Phi]]] = {}
    for var, blocks in def_blocks.items():
        worklist = list(blocks)
        placed: Set[int] = set()
        while worklist:
            bid = worklist.pop()
            for df in dom.frontier.get(bid, ()):
                if df in placed:
                    continue
                if len(method.blocks[df].preds) < 2:
                    continue
                phi = Phi(var)
                phi.iid = method.fresh_iid()
                method.blocks[df].instrs.insert(0, phi)
                phis_in_block.setdefault(df, []).append((var, phi))
                placed.add(df)
                if df not in blocks:
                    worklist.append(df)

    # 3. Rename along the dominator tree.
    counters: Dict[Var, int] = {}
    stacks: Dict[Var, List[Var]] = {}

    def top(var: Var) -> Var:
        stack = stacks.get(var)
        if stack:
            return stack[-1]
        return var if var in entry_defined else f"{var}.0"

    def fresh(var: Var) -> Var:
        counters[var] = counters.get(var, 0) + 1
        new = f"{var}.{counters[var]}"
        stacks.setdefault(var, []).append(new)
        return new

    pushed: Dict[int, List[Var]] = {}

    def rename_block(bid: int) -> None:
        block = method.blocks[bid]
        pushed[bid] = []
        for instr in block.instrs:
            if not isinstance(instr, Phi):
                instr.replace_uses({v: top(v) for v in instr.uses()})
            olds = instr.defs()
            if olds:
                old = olds[0]
                instr.replace_defs({old: fresh(old)})
                pushed[bid].append(old)
        for succ in block.succs:
            for var, phi in phis_in_block.get(succ, ()):
                phi.operands[bid] = top(var)

    def pop_block(bid: int) -> None:
        for var in pushed[bid]:
            stacks[var].pop()

    # Explicit preorder walk with post-visit pops.
    stack: List[Tuple[int, bool]] = [(method.entry_block, False)]
    while stack:
        bid, done = stack.pop()
        if done:
            pop_block(bid)
            continue
        rename_block(bid)
        stack.append((bid, True))
        for child in reversed(dom.children.get(bid, [])):
            stack.append((child, False))

    # 4. Prune dead phis (mostly versions of expression temporaries) so
    # downstream graphs don't carry noise nodes.
    _prune_dead_phis(method)

    # 5. Build def-use info.
    info = SSAInfo()
    for block in method.blocks.values():
        for instr in block.instrs:
            for var in instr.defs():
                info.def_site[var] = instr
            for var in instr.uses():
                info.uses.setdefault(var, []).append(instr)
    return info


def _prune_dead_phis(method: Method) -> None:
    """Iteratively remove phi nodes whose results are never used."""
    while True:
        used: Set[Var] = set()
        for block in method.blocks.values():
            for instr in block.instrs:
                used.update(instr.uses())
        removed = False
        for block in method.blocks.values():
            keep = []
            for instr in block.instrs:
                if isinstance(instr, Phi) and instr.lhs not in used:
                    removed = True
                else:
                    keep.append(instr)
            block.instrs = keep
        if not removed:
            return


# -- comparing two SSA forms ---------------------------------------------------


def _base(var: Var) -> Var:
    return var.rpartition(".")[0]


def live_phis(method: Method) -> Set[Var]:
    """The phis some non-phi instruction reaches through phi operands."""
    phi_of = {instr.lhs: instr for instr in method.instructions()
              if isinstance(instr, Phi)}
    stack = [var for instr in method.instructions()
             if not isinstance(instr, Phi) for var in instr.uses()]
    live: Set[Var] = set()
    while stack:
        var = stack.pop()
        if var in phi_of and var not in live:
            live.add(var)
            stack.extend(phi_of[var].operands.values())
    return live


def def_use_relation(method: Method, live_only: bool = False) -> Dict:
    """The method's def-use relation with version names factored out.

    A value is named by its definition: a non-phi def by the defining
    instruction's id, a phi by its block and variable, and an entry
    value (a parameter, ``this``, ``x.0``) by itself.  Each non-phi
    instruction maps to its defined variables and its uses, in order;
    each phi to its operand per predecessor.  ``live_only`` drops the
    phis :func:`live_phis` does not reach.
    """
    name: Dict[Var, Tuple] = {}
    for bid, block in method.blocks.items():
        for instr in block.instrs:
            for var in instr.defs():
                name[var] = (("phi", bid, _base(var))
                             if isinstance(instr, Phi)
                             else ("def", instr.iid))
    keep = live_phis(method) if live_only else None
    relation: Dict = {}
    for bid, block in method.blocks.items():
        for instr in block.instrs:
            if not isinstance(instr, Phi):
                relation[("def", instr.iid)] = (
                    [_base(var) for var in instr.defs()],
                    [name.get(var, var) for var in instr.uses()])
            elif keep is None or instr.lhs in keep:
                relation[name[instr.lhs]] = {
                    pred: name.get(var, var)
                    for pred, var in instr.operands.items()}
    return relation


def info_from_ir(method: Method) -> Tuple[Dict, Dict]:
    """``SSAInfo``'s two maps recomputed from the method's instructions,
    with each instruction named by its id."""
    def_site: Dict[Var, int] = {}
    uses: Dict[Var, List[int]] = {}
    for instr in method.instructions():
        for var in instr.defs():
            def_site[var] = instr.iid
        for var in instr.uses():
            uses.setdefault(var, []).append(instr.iid)
    return def_site, {var: sorted(iids) for var, iids in uses.items()}


def info_by_iid(info: SSAInfo) -> Tuple[Dict, Dict]:
    """``info``'s two maps with each instruction named by its id."""
    return ({var: instr.iid for var, instr in info.def_site.items()},
            {var: sorted(instr.iid for instr in users)
             for var, users in info.uses.items()})


def differences(method: Method, info: SSAInfo, ref: Method,
                ref_info: SSAInfo) -> List[str]:
    """Why ``method`` (converted by ``to_ssa``) and its copy ``ref``
    (converted by :func:`reference_to_ssa`) disagree, if they do.

    A one-block method must print identically and carry equal
    ``SSAInfo``.  Any method must have the reference's def-use relation
    once the reference's dead phis are dropped, hold no dead phi itself,
    and come with an ``SSAInfo`` that matches its instructions.
    """
    out = []
    if len(method.blocks) == 1:
        if format_method(method) != format_method(ref):
            out.append("printed IR differs")
        if info.uses != ref_info.uses or info.def_site != ref_info.def_site:
            out.append("SSAInfo differs")
    if def_use_relation(method) != def_use_relation(ref, live_only=True):
        out.append("def-use relation differs")
    if def_use_relation(method, live_only=True) != def_use_relation(method):
        out.append("dead phi created")
    if info_by_iid(info) != info_from_ir(method):
        out.append("SSAInfo does not match the IR")
    return out
