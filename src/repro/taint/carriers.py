"""Taint-carrier detection (paper §4.1.1).

A *taint carrier* is an object whose internal state holds tainted data.
Passing a carrier to a sink is reported even though the tainted value
itself is not the argument.  The algorithm is the paper's, verbatim:

1. for a store ``st``, let ``I_st`` be the points-to set of its base;
2. for a sink invocation ``sk``, let ``I*_sk`` be the instance keys
   reachable in the heap graph from the points-to sets of its sensitive
   actual parameters (bounded by the nested-taint depth of §6.2.3);
3. synthesize the HSDG edge ``st → sk`` iff ``I_st ∩ I*_sk ≠ ∅``.

The index below precomputes, per rule, the map from instance key to the
sink statements whose ``I*`` contains it, so step 3 is a lookup per
object of each tainted store's base."""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..pointer.heapgraph import HeapGraph
from ..pointer.keys import InstanceKey
from ..sdg.hsdg import DirectEdges
from ..sdg.noheap import CallSite, NoHeapSDG, StoreSite
from ..sdg.tabulation import RuleAdapter


class CarrierIndex:
    """Per-rule instance-key → sink-sites index."""

    def __init__(self, sdg: NoHeapSDG, direct: DirectEdges,
                 heap_graph: HeapGraph, adapter: RuleAdapter,
                 max_nested_depth: Optional[int]) -> None:
        self.sdg = sdg
        self.direct = direct
        self.heap_graph = heap_graph
        self.adapter = adapter
        self.max_nested_depth = max_nested_depth
        # Bitsets decode through the key table of the analysis that
        # made them.
        self._decode = direct.analysis.keys.decode
        self._by_ikey: Dict[InstanceKey, List[Tuple[CallSite, str]]] = {}
        self._build()

    def _build(self) -> None:
        points_to_bits = self.direct.points_to_bits
        for sites in self.sdg.call_sites.values():
            for site in sites:
                vulnerable, _, sink_display = self.adapter.classify(site)
                if sink_display is None:
                    continue
                roots = 0
                for idx, arg in enumerate(site.call.args):
                    if vulnerable == () or idx in (vulnerable or ()):
                        roots |= points_to_bits(site.stmt.method, arg)
                if not roots:
                    continue
                reachable = self.heap_graph.reachable_bits(
                    roots, self.max_nested_depth)
                for ikey in self._decode(reachable):
                    self._by_ikey.setdefault(ikey, []).append(
                        (site, sink_display))

    def sinks_for_store(self, store: StoreSite,
                        eff_base: Optional[Tuple[str, str]] = None
                        ) -> List[Tuple[CallSite, str]]:
        """Sink sites receiving a carrier the store writes into.

        ``eff_base`` narrows the base to the clone-precise (method, var)
        resolved during hit replay (paper §4.1.1's per-clone edge).
        """
        if store.base is None:
            return []
        base = eff_base if eff_base is not None \
            else (store.stmt.method, store.base)
        return self._sinks_of(self.direct.points_to_bits(*base))

    def sinks_for_object(self, method: str,
                         var: str) -> List[Tuple[CallSite, str]]:
        """Sink sites receiving (state reachable from) ``var``'s objects —
        used for by-reference sources."""
        return self._sinks_of(self.direct.points_to_bits(method, var))

    def _sinks_of(self, base_bits: int) -> List[Tuple[CallSite, str]]:
        """Sink sites whose I* meets ``base_bits``, deduplicated, in
        ascending instance-key order."""
        out: List[Tuple[CallSite, str]] = []
        seen: Set[Tuple[Tuple[str, int], str]] = set()
        for ikey in self._decode(base_bits):
            for site, display in self._by_ikey.get(ikey, ()):
                token = (site.key, display)
                if token not in seen:
                    seen.add(token)
                    out.append((site, display))
        return out
