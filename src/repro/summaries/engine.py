"""The summary engine: cache-backed modular taint analysis.

The insight that makes this a *third* engine rather than a fork of the
tabulator: the RHS tabulation's **balanced regions already are
per-method taint-transfer summaries**.  A balanced region ``(method,
formal)`` records, as its hit list, everything tainting that formal
makes observable — sinks reached, heap stores performed, exits taken —
with entry-relative path metadata.  The hybrid slicer composes those
regions bottom-up at call edges; it just recomputes them from scratch
every run.

So the summary engine reuses the tabulator verbatim and changes only
*where balanced regions come from*:

* **cold**: a region is explored live, exactly as hybrid would, and
  afterwards *harvested* — its hit list serialized (statement refs,
  entry-relative metadata, formal-relative store bases) and written to
  the :class:`~repro.summaries.cache.SummaryCache` under the method's
  transitive content-hash key (:mod:`repro.summaries.keys`);
* **warm**: at the moment the traversal would descend into a callee,
  a cached region is **sealed** instead — its hits are rebound against
  the current program and installed, the entry fact is marked known so
  the region body never enqueues, and the ordinary replay machinery
  lifts the cached hits across the call edge exactly as it lifts live
  ones.

Everything above the region boundary — origin seeding, heap
store→load expansion, carrier edges, flow collection, budgets,
degradation — is the shared hybrid code, which is what keeps warm runs
byte-identical to cold ones (the differential corpus enforces it).

Sealing is disabled under a *finite* state-unit budget: a sealed
region skips the per-fact meter charges a live exploration would pay,
so warm and cold runs could exhaust the budget at different points.
(An unlimited meter still counts, so a warm run honestly reports fewer
``state_units`` — that is the skipped work.)  Harvesting stays on (a
completed metered run's summaries are complete); only the reuse is
gated.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .. import __version__
from ..modeling.natives import default_natives
from ..obs.ledger import sha256_fingerprint
from ..sdg.nodes import StmtRef
from ..sdg.noheap import NoHeapSDG, StoreSite
from ..sdg.tabulation import Hit, Meta, RegionKey, RuleAdapter, Tabulator
from ..slicing.hybrid import HybridSlicer
from .cache import SummaryCache
from .keys import entry_key, rule_fingerprint, transitive_keys

Provider = Callable[[str, str], Optional[List[Hit]]]


class RebindError(Exception):
    """A cached hit no longer maps onto the current program."""


# -- hit serialization --------------------------------------------------------
#
# One hit is one JSON list (positional, compact):
#   [kind, stmt_ref, store_ref, sink_display, steps, crossing,
#    transitions, exit_var, base_formal, eff_base]
# with refs as [method, iid] and eff_base as [method, var].  All names
# are entry-relative (base_formal) or globally qualified (everything
# else), so a hit is context-free given its region.


def serialize_hit(hit: Hit) -> List:
    return [
        hit.kind,
        [hit.stmt.ref.method, hit.stmt.ref.iid] if hit.stmt else None,
        ([hit.store.stmt.ref.method, hit.store.stmt.ref.iid]
         if hit.store is not None else None),
        hit.sink_display,
        hit.meta.steps,
        ([hit.meta.crossing.method, hit.meta.crossing.iid]
         if hit.meta.crossing is not None else None),
        hit.meta.transitions,
        hit.exit_var,
        hit.base_formal,
        list(hit.eff_base) if hit.eff_base is not None else None,
    ]


def rebind_hit(row: List, sdg: NoHeapSDG,
               stores: Dict[StmtRef, StoreSite]) -> Hit:
    """Reconstruct a :class:`Hit` against the current SDG.  Any ref
    that no longer resolves raises :class:`RebindError` — the caller
    drops the whole entry and explores live (stale, never wrong)."""
    try:
        (kind, stmt_ref, store_ref, sink_display, steps, crossing_ref,
         transitions, exit_var, base_formal, eff_base) = row
    except (TypeError, ValueError) as exc:
        raise RebindError(f"malformed hit row: {exc}") from exc
    if kind not in ("sink", "store", "exit"):
        raise RebindError(f"unknown hit kind {kind!r}")
    stmt = None
    if stmt_ref is not None:
        stmt = sdg.stmt(StmtRef(stmt_ref[0], stmt_ref[1]))
        if stmt is None:
            raise RebindError(f"unresolvable stmt {stmt_ref!r}")
    store = None
    if kind == "store":
        if store_ref is None:
            raise RebindError("store hit without a store ref")
        store = stores.get(StmtRef(store_ref[0], store_ref[1]))
        if store is None:
            raise RebindError(f"unresolvable store {store_ref!r}")
    crossing = None
    if crossing_ref is not None:
        crossing = StmtRef(crossing_ref[0], crossing_ref[1])
        if sdg.stmt(crossing) is None:
            raise RebindError(f"unresolvable crossing {crossing_ref!r}")
    if not isinstance(steps, int) or not isinstance(transitions, int) \
            or not isinstance(exit_var, str):
        raise RebindError("malformed hit metadata")
    return Hit(kind, stmt, store, sink_display,
               Meta(steps, crossing, transitions), exit_var, base_formal,
               tuple(eff_base) if eff_base is not None else None)


# -- the sealed-region tabulator ----------------------------------------------


class SummaryTabulator(Tabulator):
    """A tabulator whose balanced regions can come from the cache.

    The override is a single seam: :meth:`_descend` first offers the
    callee region to :meth:`stitch`, which — when the provider has a
    summary — installs the cached hits and marks the entry fact known.
    The superclass ``_descend`` then runs unchanged: it appends the
    ``Incoming``, its ``_add_fact`` sees the entry fact already present
    and never enqueues it (the region body is skipped), and its replay
    loop lifts the installed hits across the new call edge through the
    ordinary ``_replay`` machinery — meta composition, crossing
    fallback, and store-base translation all shared with live regions.
    A completed :meth:`run` harvests the explored regions into the
    backend.
    """

    def __init__(self, *args, backend: Optional["SummaryBackend"] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.backend = backend
        self.provider: Optional[Provider] = None
        if backend is not None:
            self.provider = backend.provider_for(self.sdg,
                                                 self.adapter.rule)
        self.sealed_regions: set = set()

    def run(self) -> None:
        super().run()
        # Harvest only after a *completed* traversal: a budget or
        # deadline trip unwinds past this point, and a half-explored
        # region must never be cached as a summary.
        if self.backend is not None:
            self.backend.harvest(self.sdg, self.adapter.rule, self)

    def stitch(self, callee_region: RegionKey) -> None:
        """Seal one balanced region from the cache, if it is available
        and not already live.  (Named for the profiler: HOT_LOOPS
        attributes warm-path work to ``summaries.stitch``.)"""
        provider = self.provider
        if provider is None or \
                (self.meter is not None and self.meter.limit is not None):
            return
        if callee_region in self.facts:
            return
        cached = provider(callee_region.method, callee_region.entry)
        if cached is None:
            return
        self.facts[callee_region] = {callee_region.entry: Meta()}
        self.hits[callee_region] = list(cached)
        self._hit_sigs[callee_region] = {hit.signature() for hit in cached}
        self.sealed_regions.add(callee_region)

    def _descend(self, region: RegionKey, meta: Meta, site, target: str,
                 formal: str) -> None:
        self.stitch(RegionKey(target, formal))
        super()._descend(region, meta, site, target, formal)


# -- the slicer ---------------------------------------------------------------


class SummarySlicer(HybridSlicer):
    """Hybrid slicing with cache-backed balanced regions.

    Identical traversal; the only difference is the tabulator factory
    (sealing, and a harvest once a rule's traversal completes).  Without
    a backend it *is* the hybrid slicer.
    """

    name = "summary"

    def __init__(self, *args, backend: Optional["SummaryBackend"] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.backend = backend

    def _make_tabulator(self, adapter: RuleAdapter, on_hit) -> Tabulator:
        return SummaryTabulator(
            self.sdg, adapter, on_hit, meter=self.meter,
            resilience=self.resilience, backend=self.backend)


# -- the backend --------------------------------------------------------------


def model_fingerprint() -> str:
    """The cache-identity half that is *not* per-method content: the
    model-library version (package version + the registered native
    summary names — editing a native changes taint transfer without
    touching any app method's IR)."""
    return sha256_fingerprint({
        "version": __version__,
        "natives": sorted(default_natives()._handlers),
    })


class SummaryBackend:
    """Owns keys, cache, and counters for one analysis run (or a
    sequence of runs sharing one cache directory).

    Lifecycle: construct (optionally with a cache directory), then per
    program :meth:`prepare` computes the transitive key table and loads
    the cache; slicers pull providers and push harvests; the engine
    calls :meth:`publish` to surface the counters.
    """

    def __init__(self, cache_dir: Optional[str] = None) -> None:
        self.cache_dir = cache_dir
        self.fingerprint = model_fingerprint()
        self.cache: Optional[SummaryCache] = None
        # Counters, reset by prepare(): region-grain — one sealed
        # region is one hit, one live exploration of a summarizable
        # region is one miss.
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.evictions = 0
        # Per-program derived state (lazy; rebuilt per SDG).
        self._keys: Optional[Dict[str, str]] = None
        self._sdg_id: Optional[int] = None
        self._stores: Optional[Dict[StmtRef, StoreSite]] = None
        self._rebound: Dict[Tuple[str, str], Optional[List[Hit]]] = {}
        self._rule_fps: Dict[str, str] = {}

    # -- lifecycle -----------------------------------------------------------

    def prepare(self, sdg: NoHeapSDG) -> None:
        """Compute the key table for this program and load the cache.
        Counters reset here: they describe one run."""
        self.hits = self.misses = self.stale = self.evictions = 0
        self._bind(sdg)
        # The rebind memo caches negative lookups too; entries
        # harvested by the previous run make those stale, so every run
        # starts with a clean memo.
        self._rebound = {}
        if self.cache is None and self.cache_dir is not None:
            self.cache = SummaryCache(self.cache_dir, self.fingerprint)
            self.cache.load()
            self.stale += self.cache.stale
            self.evictions += self.cache.evicted

    def _bind(self, sdg: NoHeapSDG) -> None:
        if self._keys is not None and self._sdg_id == id(sdg):
            return
        self._keys = transitive_keys(sdg)
        self._sdg_id = id(sdg)
        self._stores = {site.stmt.ref: site
                        for sites in sdg.stores_by_field.values()
                        for site in sites}
        self._rebound = {}

    def _rule_fp(self, rule) -> str:
        fp = self._rule_fps.get(rule.name)
        if fp is None:
            fp = self._rule_fps[rule.name] = rule_fingerprint(rule)
        return fp

    # -- warm path -----------------------------------------------------------

    def provider_for(self, sdg: NoHeapSDG, rule) -> Optional[Provider]:
        if self.cache is None:
            return None
        self._bind(sdg)
        cache = self.cache
        keys = self._keys
        stores = self._stores
        rule_fp = self._rule_fp(rule)

        def provider(method: str, formal: str) -> Optional[List[Hit]]:
            method_key = keys.get(method)
            if method_key is None:
                return None
            key = entry_key(method, method_key, rule_fp)
            token = (key, formal)
            if token in self._rebound:
                cached = self._rebound[token]
                if cached is not None:
                    self.hits += 1
                return cached
            entry = cache.get(key)
            rows = entry["hits"].get(formal) if entry is not None else None
            if rows is None:
                self.misses += 1
                self._rebound[token] = None
                return None
            try:
                hits = [rebind_hit(row, sdg, stores) for row in rows]
            except RebindError:
                # The key said "identical", the program disagreed:
                # drop the entry, count it stale, explore live.
                cache.drop(key)
                self.stale += 1
                self.misses += 1
                self._rebound[token] = None
                return None
            self.hits += 1
            self._rebound[token] = hits
            return hits

        return provider

    # -- cold path -----------------------------------------------------------

    def harvest(self, sdg: NoHeapSDG, rule, tab: SummaryTabulator) -> None:
        """Serialize every fully-explored balanced region into the
        cache.  Only called after a completed traversal — a drained
        worklist means every region in ``tab.facts`` is closed.  Empty
        hit lists are cached too: a *negative* summary (taint enters,
        nothing observable happens) is exactly the entry that lets a
        warm run skip the region."""
        if self.cache is None:
            return
        self._bind(sdg)
        cache = self.cache
        keys = self._keys
        rule_fp = self._rule_fp(rule)
        by_method: Dict[str, Dict[str, List]] = {}
        for region in tab.facts:
            if region.is_origin or region in tab.sealed_regions:
                continue
            if keys.get(region.method) is None:
                continue
            by_method.setdefault(region.method, {})[region.entry] = [
                serialize_hit(hit) for hit in tab.hits.get(region, [])]
        for method, hits in by_method.items():
            key = entry_key(method, keys[method], rule_fp)
            before = cache.evicted
            cache.put(key, method, hits)
            self.evictions += cache.evicted - before

    # -- obs -----------------------------------------------------------------

    def publish(self, metrics) -> None:
        """Surface the run's counters on the metrics registry (and so
        on the run ledger's WORK_COUNTERS)."""
        metrics.inc("summary.cache.hits", self.hits)
        metrics.inc("summary.cache.misses", self.misses)
        metrics.inc("summary.cache.evictions", self.evictions)
        metrics.inc("summary.cache.stale", self.stale)
