"""Direct (store→load) HSDG edges (paper §3.2).

"A direct edge connects a store to a load and represents a data
dependence computed by a preliminary pointer analysis" — i.e. the store
and load access the same field and their base pointers may alias.  These
edges realize the flow-insensitive heap half of hybrid thin slicing; the
flow- and context-sensitive local half is the tabulation engine.

Static fields need no aliasing: store and load match on field identity.
The ``@any`` field marker (by-reference sources, paper footnote 2)
matches loads of every field on an aliased base.

The may-alias test ``base_pts ∩ load_pts ≠ ∅`` runs once per
(store, load) pair per rule, which makes it one of slicing's hottest
predicates.  The context-collapsed points-to sets are cached as the
solver's **bitset ints**, so the test is a single big-int AND.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .noheap import ANY_FIELD, LoadSite, NoHeapSDG, StoreSite


class DirectEdges:
    """Demand store→load matching over a pointer-analysis solution."""

    def __init__(self, sdg: NoHeapSDG, analysis: object) -> None:
        self.sdg = sdg
        self.analysis = analysis
        self._bits_cache: Dict[Tuple[str, str], int] = {}

    def points_to_bits(self, method: str, var: str) -> int:
        """Context-collapsed points-to set of a local as a bitset
        (cached)."""
        key = (method, var)
        cached = self._bits_cache.get(key)
        if cached is None:
            cached = self.analysis.points_to_var_bits(method, var)
            self._bits_cache[key] = cached
        return cached

    def loads_for_store(self, store: StoreSite,
                        eff_base: Optional[Tuple[str, str]] = None
                        ) -> List[LoadSite]:
        """All load statements the store may flow to.

        ``eff_base`` — an optional (method, var) whose points-to set
        replaces the store base's own: the clone-precise base resolved by
        hit replay (see :mod:`repro.sdg.tabulation`).
        """
        if store.base is None:
            # Static field: match by field identity.
            return list(self.sdg.loads_of_field(store.fld))
        base = eff_base if eff_base is not None \
            else (store.stmt.method, store.base)
        return self._aliased_loads(store.fld, self.points_to_bits(*base))

    def loads_for_tainted_object(self, method: str,
                                 var: str) -> List[LoadSite]:
        """Loads of *any* field of objects aliased with ``var`` — used
        for by-reference sources that taint an object's whole state."""
        return self._aliased_loads(ANY_FIELD,
                                   self.points_to_bits(method, var))

    def _aliased_loads(self, fld: str, base_bits: int) -> List[LoadSite]:
        """Loads of ``fld`` whose base may point into ``base_bits``."""
        if not base_bits:
            return []
        points_to_bits = self.points_to_bits
        return [load for load in self.sdg.loads_of_field(fld)
                if load.base is not None
                and base_bits & points_to_bits(load.stmt.method,
                                               load.base)]
