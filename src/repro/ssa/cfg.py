"""CFG traversal utilities over :class:`~repro.ir.program.Method` bodies."""

from __future__ import annotations

from typing import List

from ..ir import Method


def reverse_postorder(method: Method) -> List[int]:
    """Block ids in reverse postorder from the entry block."""
    blocks = method.blocks
    entry = method.entry_block
    visited = {entry}
    order: List[int] = []
    # Iterative DFS to keep deep CFGs off the Python stack.
    stack = [(entry, iter(blocks[entry].succs))]
    while stack:
        cur, succs = stack[-1]
        for succ in succs:
            if succ not in visited:
                visited.add(succ)
                stack.append((succ, iter(blocks[succ].succs)))
                break
        else:
            order.append(cur)
            stack.pop()
    order.reverse()
    return order
