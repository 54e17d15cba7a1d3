"""The heap graph view of a pointer-analysis solution (paper §4.1.1).

A bipartite graph over instance keys and pointer keys: ``P -> I`` when P
may point to I, and ``I -> P`` when P is a field (or the array contents)
of I.  Taint-carrier detection walks this graph from sink arguments with
a bounded field-dereference depth (§6.2.3).

Only the instance-key projection is kept: per instance key, the union
of what its fields may point to, as a **bitset int** over the solver's
dense instance-key ID space (:meth:`PointerAnalysis.iter_pts_bits`).
Reachability takes and returns bitsets, so one sweep level is an OR per
frontier object and a ``new & ~seen`` mask.
"""

from __future__ import annotations

from typing import Dict, Optional

from .keys import FieldKey


class HeapGraph:
    """Instance-key adjacency derived from points-to sets."""

    def __init__(self, analysis: object) -> None:
        # instance-key index -> bitset of the objects its fields may
        # point to.
        succs: Dict[int, int] = {}
        for key, bits in analysis.iter_pts_bits():
            if isinstance(key, FieldKey):
                index = key.instance.index
                succs[index] = succs.get(index, 0) | bits
        self._succs = succs

    def reachable_bits(self, roots: int,
                       max_depth: Optional[int] = None) -> int:
        """Bitset of the objects reachable from ``roots`` (roots
        included).

        ``max_depth`` bounds the number of field dereferences, per the
        nested-taint bound of §6.2.3; ``None`` means unbounded.
        """
        succs = self._succs
        seen = frontier = roots
        depth = 0
        while frontier and (max_depth is None or depth < max_depth):
            new_bits = 0
            while frontier:
                low = frontier & -frontier
                new_bits |= succs.get(low.bit_length() - 1, 0)
                frontier ^= low
            frontier = new_bits & ~seen
            seen |= frontier
            depth += 1
        return seen
