"""Content-hash keys for the persistent summary cache.

A method's taint-transfer summary (its balanced-region hit lists, see
:mod:`repro.sdg.tabulation`) is a function of

* the method's own IR (the :func:`repro.ir.printer.format_method`
  render, which covers instruction ids, parameter names, and blocks);
* the *resolved call environment* at each of its call sites — which
  callees the call graph bound, their parameter bindings, whether each
  side of the edge is application code (that decides ``crossing``
  stamps and therefore LCPs);
* everything the same holds for, transitively, every method reachable
  from it (lifted hits fold callee summaries into the caller's).

So the cache key for a method is a **transitive content hash**: a local
hash per method (IR render + call environment), composed bottom-up over
the call graph's SCC condensation (an iterative Tarjan sweep).  Editing
one method's body moves the local hash of that method and, through
composition, the transitive key of exactly its call-graph ancestors:
the dirtied region re-explores, everything else stays warm.

Mutually recursive methods share one component and therefore one
transitive digest — any edit inside a cycle invalidates the whole
cycle, which is exactly the granularity at which their summaries are
entangled.

Deliberately **excluded** from the key: the §6.2 budgets (flow length,
heap transitions, state units, nested depth).  They act at the origin /
collector / slicer level, never inside a balanced region's hit list, so
including them would only fragment the cache (docs/performance.md).
The per-rule half of the identity (sanitizers cut edges, sinks stop
propagation) is the *rule fingerprint*, combined with the method key in
:func:`entry_key`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..ir.printer import format_method
from ..obs.ledger import sha256_fingerprint
from ..sdg.noheap import NoHeapSDG


def rule_fingerprint(rule) -> str:
    """Digest of everything a rule contributes to balanced-region hits:
    sources are origin-side only, but they are cheap to include and make
    the key a digest of the whole rule definition."""
    return sha256_fingerprint({
        "name": rule.name,
        "sources": sorted(rule.sources),
        "sanitizers": sorted(rule.sanitizers),
        "sinks": {name: list(params) if params is not None else None
                  for name, params in sorted(rule.sinks.items())},
        "ref_sources": {name: list(idxs)
                        for name, idxs in sorted(rule.ref_sources.items())},
    })


def local_hashes(sdg: NoHeapSDG) -> Dict[str, str]:
    """Per-method local content hash: IR render + resolved call
    environment + application-ness, for every indexed method."""
    program = sdg.program
    app_cache: Dict[str, bool] = {}

    def is_app(qname: str) -> bool:
        cached = app_cache.get(qname)
        if cached is None:
            method = program.lookup_method(qname)
            cached = bool(method) and \
                program.is_application_method(method) and \
                not method.is_synthetic
            app_cache[qname] = cached
        return cached

    out: Dict[str, str] = {}
    for qname in sdg.call_sites:
        method = program.lookup_method(qname)
        if method is None:
            continue
        env: List = []
        for site in sdg.call_sites.get(qname, []):
            env.append([
                site.stmt.ref.iid,
                site.stmt.in_application,
                sorted(site.native_targets),
                [[target, is_app(target),
                  sdg.bindings(site, target)]
                 for target in sorted(site.targets)],
            ])
        out[qname] = sha256_fingerprint({
            "ir": format_method(method),
            "app": is_app(qname),
            "env": env,
        })
    return out


def _cycles(succs: Dict[str, List[str]]) -> List[List[str]]:
    """Non-trivial strongly connected components of a call graph.

    Iterative Tarjan: call graphs routinely exceed Python's recursion
    limit.  A method calling only itself is not a component.
    """
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = 0

    for start in succs:
        if start in index:
            continue
        # Each frame: (node, iterator over its successors).
        work: List[Tuple[str, Iterator[str]]] = []
        index[start] = lowlink[start] = counter
        counter += 1
        stack.append(start)
        on_stack[start] = True
        work.append((start, iter(succs.get(start, ()))))
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(succs.get(succ, ()))))
                    advanced = True
                    break
                if on_stack.get(succ):
                    if index[succ] < lowlink[node]:
                        lowlink[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index[node]:
                comp: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp.append(member)
                    if member == node:
                        break
                if len(comp) > 1:
                    sccs.append(comp)
    return sccs


def transitive_keys(sdg: NoHeapSDG) -> Dict[str, str]:
    """Method → transitive content hash, composed bottom-up over the
    call graph's SCC condensation."""
    locals_ = local_hashes(sdg)
    succs: Dict[str, List[str]] = {}
    for qname in locals_:
        callees = {target for site in sdg.call_sites.get(qname, [])
                   for target in site.targets if target in locals_}
        succs[qname] = sorted(callees)

    # Non-trivial cycles share one component; everything else is its
    # own singleton.
    comp_of: Dict[str, str] = {}
    members: Dict[str, List[str]] = {}
    for comp in _cycles(succs):
        root = min(comp)
        for member in comp:
            comp_of[member] = root
        members[root] = sorted(comp)
    for qname in locals_:
        if qname not in comp_of:
            comp_of[qname] = qname
            members[qname] = [qname]

    comp_succs: Dict[str, List[str]] = {}
    for qname, callees in succs.items():
        comp = comp_of[qname]
        bucket = comp_succs.setdefault(comp, [])
        for callee in callees:
            target = comp_of[callee]
            if target != comp and target not in bucket:
                bucket.append(target)

    digests: Dict[str, str] = {}

    def compute(start: str) -> None:
        # Iterative post-order, for the same reason as _cycles.
        stack: List[List] = [[start, False]]
        while stack:
            comp, expanded = stack[-1]
            if comp in digests:
                stack.pop()
                continue
            if not expanded:
                stack[-1][1] = True
                for succ in sorted(comp_succs.get(comp, [])):
                    if succ not in digests:
                        stack.append([succ, False])
                continue
            stack.pop()
            digests[comp] = sha256_fingerprint({
                "members": sorted(locals_[m] for m in members[comp]),
                "deps": sorted(digests[s]
                               for s in comp_succs.get(comp, [])),
            })

    for comp in members:
        compute(comp)
    return {qname: digests[comp_of[qname]] for qname in locals_}


def entry_key(method: str, method_key: str, rule_fp: str) -> str:
    """The cache-entry identity: one method's summary under one rule."""
    return sha256_fingerprint([method, method_key, rule_fp])
