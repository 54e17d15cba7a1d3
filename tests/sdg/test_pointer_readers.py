"""The bitset readers of the pointer solution against set references.

``DirectEdges``, ``HeapGraph``, ``CarrierIndex`` and the CS heap
channels read the solver's points-to sets as bitset ints over the dense
instance-key IDs.  The references below are their earlier frozenset
implementations, fed from the kernel's decoded sets instead:
``points_to_var`` for locals and the ``FieldKey`` entries of
``iter_pts()`` for the heap.  On the micro + securibench programs and
the Table-2 apps the two must agree on:

* the objects of every local a reader asks about;
* the loads each store may flow to (``loads_for_store``) and the loads
  of each by-reference source argument's objects
  (``loads_for_tainted_object``);
* the objects reachable from every sink site's vulnerable arguments, at
  field-dereference depths None, 0, 1 and 2 (``reachable_bits``);
* per default rule, the sinks each store and each by-reference source
  argument reaches through a taint carrier (``sinks_for_store``,
  ``sinks_for_object``), unbounded and at the default nested depth;
* the CS heap channels of every based store and load.

Carrier lookups walk objects in ascending key index, the references in
set order, so carrier sinks compare as sorted lists.
"""

import pytest

from repro.bench import securibench
from repro.bench.micro import MICRO_CASES, MICRO_DESCRIPTORS, MOTIVATING
from repro.bench.suite import generate_suite
from repro.core import DEFAULT_NESTED_DEPTH
from repro.modeling import (COLLECTION_CLASSES, FACTORY_METHODS,
                            default_natives, prepare)
from repro.pointer import (ChaoticOrder, ContextPolicy, FieldKey,
                           PointerAnalysis, PolicyConfig)
from repro.pointer.heapgraph import HeapGraph
from repro.sdg.hsdg import DirectEdges
from repro.sdg.noheap import ANY_FIELD
from repro.sdg.tabulation import RuleAdapter
from repro.slicing.base import enumerate_sources
from repro.slicing.cs import CSExtendedSDG
from repro.taint import CarrierIndex, default_rules


# -- set-based references -----------------------------------------------------

class ReferenceDirectEdges:
    """Frozenset store→load matching (the earlier ``DirectEdges``)."""

    def __init__(self, sdg, analysis):
        self.sdg = sdg
        self.analysis = analysis
        self._pts_cache = {}

    def points_to(self, method, var):
        key = (method, var)
        cached = self._pts_cache.get(key)
        if cached is None:
            cached = frozenset(self.analysis.points_to_var(method, var))
            self._pts_cache[key] = cached
        return cached

    def loads_for_store(self, store):
        if store.base is None:
            return list(self.sdg.loads_of_field(store.fld))
        base_pts = self.points_to(store.stmt.method, store.base)
        if not base_pts:
            return []
        out = []
        for load in self.sdg.loads_of_field(store.fld):
            if load.base is None:
                continue
            load_pts = self.points_to(load.stmt.method, load.base)
            if base_pts & load_pts:
                out.append(load)
        return out

    def loads_for_tainted_object(self, method, var):
        base_pts = self.points_to(method, var)
        if not base_pts:
            return []
        out = []
        for load in self.sdg.loads_of_field(ANY_FIELD):
            if load.base is None:
                continue
            if base_pts & self.points_to(load.stmt.method, load.base):
                out.append(load)
        return out


class ReferenceHeapGraph:
    """Set-based heap graph (the earlier ``HeapGraph``)."""

    def __init__(self, analysis):
        self._fields_of = {}
        self._pts = {}
        for key, pts in analysis.iter_pts():
            if isinstance(key, FieldKey):
                self._fields_of.setdefault(key.instance, []).append(key)
                self._pts[key] = self._pts.get(key, set()) | pts

    def successors(self, instance):
        out = set()
        for fkey in self._fields_of.get(instance, ()):
            out |= self._pts[fkey]
        return out

    def reachable(self, roots, max_depth=None):
        frontier = list(roots)
        seen = set(frontier)
        depth = 0
        while frontier and (max_depth is None or depth < max_depth):
            new = set()
            for ikey in frontier:
                new |= self.successors(ikey)
            new -= seen
            if not new:
                break
            seen |= new
            frontier = list(new)
            depth += 1
        return seen


def sink_roots(direct, adapter, site):
    """A sink site's display and the union of its vulnerable arguments'
    objects (``None`` display: not a sink of the rule)."""
    vulnerable, _, sink_display = adapter.classify(site)
    roots = set()
    if sink_display is not None:
        for idx, arg in enumerate(site.call.args):
            if vulnerable == () or idx in (vulnerable or ()):
                roots |= direct.points_to(site.stmt.method, arg)
    return sink_display, roots


class ReferenceCarrierIndex:
    """Set-based instance-key → sink-sites index (the earlier
    ``CarrierIndex``)."""

    def __init__(self, sdg, direct, heap_graph, adapter, max_nested_depth):
        self.direct = direct
        self._by_ikey = {}
        for sites in sdg.call_sites.values():
            for site in sites:
                sink_display, roots = sink_roots(direct, adapter, site)
                if not roots:
                    continue
                for ikey in heap_graph.reachable(roots, max_nested_depth):
                    self._by_ikey.setdefault(ikey, []).append(
                        (site, sink_display))

    def _sinks(self, base_pts):
        out = []
        seen = set()
        for ikey in base_pts:
            for site, display in self._by_ikey.get(ikey, []):
                token = (site.key, display)
                if token not in seen:
                    seen.add(token)
                    out.append((site, display))
        return out

    def sinks_for_store(self, store):
        if store.base is None:
            return []
        return self._sinks(self.direct.points_to(store.stmt.method,
                                                 store.base))

    def sinks_for_object(self, method, var):
        return self._sinks(self.direct.points_to(method, var))


# -- corpus -------------------------------------------------------------------

def _inputs():
    """(id, sources, deployment descriptor) for every compared input."""
    out = [("micro:Motivating", [MOTIVATING], None)]
    out += [(f"micro:{name}", [source], MICRO_DESCRIPTORS.get(name))
            for name, (source, _) in sorted(MICRO_CASES.items())]
    out += [(f"securibench:{category}:{name}", [source], None)
            for category, name, source, _ in securibench.all_cases()]
    out += [(f"table2:{name}", app.sources,
             app.deployment_descriptor or None)
            for name, app in sorted(generate_suite().items())]
    return out


INPUTS = _inputs()


def solve(sources, descriptor):
    """The pointer solution of the hybrid presets (the pipeline's full
    context policy, chaotic order, no bound)."""
    prepared = prepare(sources, descriptor)
    rules = default_rules()
    policy = ContextPolicy(PolicyConfig(
        collection_classes=set(COLLECTION_CLASSES),
        factory_methods=set(FACTORY_METHODS),
        taint_api_methods=rules.taint_api_methods()))
    analysis = PointerAnalysis(prepared.program, policy,
                               natives=default_natives(),
                               order=ChaoticOrder())
    analysis.solve()
    return prepared.program, analysis


def carrier_tokens(sinks):
    return sorted((site.key, display) for site, display in sinks)


def test_corpus_spans_every_named_input():
    assert len(INPUTS) == 63 + 22


@pytest.mark.parametrize("sources,descriptor",
                         [(s, d) for _, s, d in INPUTS],
                         ids=[name for name, _, _ in INPUTS])
def test_bitset_readers_match_set_references(sources, descriptor):
    program, analysis = solve(sources, descriptor)
    # The CS graph is a no-heap SDG plus channels: one graph serves
    # every reader.
    sdg = CSExtendedSDG(program, analysis.call_graph, analysis)
    direct = DirectEdges(sdg, analysis)
    heap = HeapGraph(analysis)
    ref_direct = ReferenceDirectEdges(sdg, analysis)
    ref_heap = ReferenceHeapGraph(analysis)

    def decoded(bits):
        return set(analysis.keys.decode(bits))

    def same_objects(method, var):
        assert decoded(direct.points_to_bits(method, var)) == \
            ref_direct.points_to(method, var), (method, var)

    stores = [store for sites in sdg.stores_by_field.values()
              for store in sites]
    for store in stores:
        if store.base is not None:
            same_objects(store.stmt.method, store.base)
            assert sorted(sdg._channels_for(store.stmt.method, store.base,
                                            store.fld)) == \
                sorted(f"@f:{store.fld}:{ikey}" for ikey in
                       ref_direct.points_to(store.stmt.method,
                                            store.base))
        assert direct.loads_for_store(store) == \
            ref_direct.loads_for_store(store), store.stmt.ref
    for loads in sdg.loads_by_field.values():
        for load in loads:
            if load.base is not None:
                same_objects(load.stmt.method, load.base)

    for rule in default_rules():
        adapter = RuleAdapter(sdg, rule)
        ref_args = [(seed.stmt.ref.method, arg)
                    for seed in enumerate_sources(sdg, rule)
                    for arg in seed.ref_args]
        for method, var in ref_args:
            same_objects(method, var)
            assert direct.loads_for_tainted_object(method, var) == \
                ref_direct.loads_for_tainted_object(method, var), \
                (rule.name, method, var)
        for sites in sdg.call_sites.values():
            for site in sites:
                _, roots = sink_roots(ref_direct, adapter, site)
                if not roots:
                    continue
                for arg in site.call.args:
                    same_objects(site.stmt.method, arg)
                for depth in (None, 0, 1, 2):
                    assert decoded(heap.reachable_bits(
                        sum(ikey.bit for ikey in roots), depth)) == \
                        ref_heap.reachable(roots, depth), \
                        (rule.name, site.key, depth)
        for depth in (None, DEFAULT_NESTED_DEPTH):
            carriers = CarrierIndex(sdg, direct, heap, adapter, depth)
            reference = ReferenceCarrierIndex(sdg, ref_direct, ref_heap,
                                              adapter, depth)
            for store in stores:
                assert carrier_tokens(carriers.sinks_for_store(store)) == \
                    carrier_tokens(reference.sinks_for_store(store)), \
                    (rule.name, depth, store.stmt.ref)
            for method, var in ref_args:
                assert carrier_tokens(carriers.sinks_for_object(
                    method, var)) == carrier_tokens(
                    reference.sinks_for_object(method, var)), \
                    (rule.name, depth, method, var)
