"""Context-sensitive reachability over the no-heap SDG
(Reps-Horwitz-Sagiv tabulation, paper §3.2).

The engine is organized around *regions*.  A region is the set of facts
reachable inside one method from one entry fact:

* **balanced regions** ``(method, formal)`` — reached through a call
  edge; explored once and shared by every caller (these are the RHS
  summaries);
* **origin regions** ``(method, origin-id)`` — the demand-driven starts:
  a taint-source return value, or the target of a heap (store→load)
  transition.  Facts here may leave the method upward through *any*
  caller (unbalanced return), which is what makes the slice demand-driven
  from an arbitrary statement.

Interesting facts produce **hits**:

* ``sink``  — the fact is a vulnerable argument of a sink call;
* ``store`` — the fact is the stored value of a (static or instance)
  store statement: the HSDG driver turns this into direct heap edges and
  taint-carrier checks;
* ``exit``  — the fact is the method's return value: lifted at balanced
  callers as continued local flow (the RHS summary edge), and at origin
  regions as unbalanced returns to every caller.

Hits recorded in a balanced region are replayed to every (current and
future) incoming call edge, so per-origin traversals share all
exploration work.

Each fact carries small metadata, combined first-wins:

* ``steps`` — traversed-edge count relative to the region entry (feeds
  the flow-length bound of §6.2.2);
* ``crossing`` — the last application→library transition statement on
  the path (feeds LCP computation, §5);
* ``transitions`` — store→load heap hops on the witness path from the
  original taint source.  Witness-relative (not a slicer-global
  counter), so the value recorded on a flow never depends on what else
  was sliced alongside.

Per-rule behaviour (sanitizer cuts, sink detection) is injected via a
:class:`RuleAdapter`, so one engine serves every security rule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, List, Optional, Set, Tuple,
                    TYPE_CHECKING)

from ..bounds import StateMeter
from ..ir import StringOp
from .nodes import Fact, RET, Stmt, StmtRef

if TYPE_CHECKING:  # pragma: no cover — avoids a package import cycle
    from ..taint.rules import SecurityRule
from .noheap import CallSite, NoHeapSDG, StoreSite


@dataclass(frozen=True)
class RegionKey:
    """(method, entry): entry is a formal var or an origin id string."""

    method: str
    entry: str
    is_origin: bool = False


@dataclass
class Meta:
    """Path metadata relative to the region entry."""

    steps: int = 0
    crossing: Optional[StmtRef] = None
    transitions: int = 0

    def extend(self, steps: int = 1,
               crossing: Optional[StmtRef] = None) -> "Meta":
        return Meta(self.steps + steps,
                    crossing if crossing is not None else self.crossing,
                    self.transitions)


@dataclass
class Hit:
    """An interesting fact found inside a region."""

    kind: str                    # "sink" | "store" | "exit"
    stmt: Optional[Stmt]         # sink call / store statement
    store: Optional[StoreSite]   # for kind == "store"
    sink_display: Optional[str]  # matched sink method for kind == "sink"
    meta: Meta
    exit_var: str = RET          # for kind == "exit": which fact exits
                                 # (RET, or a CS heap-channel fact)
    # Store-base refinement (paper §4.1.1: the HSDG edge originates "in
    # the clone of the constructor corresponding to the allocation").
    # When the store's base pointer is a formal/this of its method, the
    # base is re-expressed as the matching actual at each call edge the
    # hit is replayed across; once it lands on an ordinary local,
    # ``eff_base`` pins (method, var) whose points-to set — precise at
    # the caller's allocation-site granularity — drives carrier checks
    # and direct heap edges.
    base_formal: Optional[str] = None
    eff_base: Optional[Tuple[str, str]] = None

    def signature(self) -> Tuple:
        ref = self.stmt.ref if self.stmt else None
        return (self.kind, ref, self.sink_display, self.exit_var,
                self.base_formal, self.eff_base)


@dataclass
class Incoming:
    """A call edge into a balanced region."""

    parent: RegionKey
    site: CallSite
    parent_meta: Meta            # meta of the actual at the call site
    crossing_at_call: Optional[StmtRef]


class RuleAdapter:
    """Per-rule classification of call sites, with caching."""

    def __init__(self, sdg: NoHeapSDG, rule: "SecurityRule") -> None:
        self.sdg = sdg
        self.rule = rule
        self._cache: Dict[Tuple[str, int], Tuple] = {}

    def classify(self, site: CallSite) -> Tuple[Optional[Tuple[str, ...]],
                                                bool, Optional[str]]:
        """Returns (vulnerable_params or None, is_sanitizer, sink_display).

        ``vulnerable_params`` of ``()`` means every parameter.
        """
        key = site.key
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        rule = self.rule
        sink_display: Optional[str] = None
        vulnerable: Optional[Tuple[int, ...]] = None
        sanitizer = False
        displays = list(site.native_targets)
        for target in site.targets:
            displays.append(target.rsplit("/", 1)[0])
        for display in displays:
            match = rule.sink_match(site.call, display)
            if match is not None:
                sink_display = match
                params = rule.sink_params(match)
                vulnerable = tuple(params) if params is not None else ()
            if rule.sanitizer_match_call(site.call, display) is not None:
                sanitizer = True
        result = (vulnerable if sink_display else None, sanitizer,
                  sink_display)
        self._cache[key] = result
        return result

    def is_sanitizer_strop(self, stmt: Stmt) -> bool:
        return isinstance(stmt.instr, StringOp) and \
            stmt.instr.method in self.rule.sanitizers


def is_thread_edge(site: CallSite, target: str) -> bool:
    """A ``Thread.start`` call edge into a ``run`` method: the edge CS
    skips, and the source of its unsoundness for threads."""
    return site.call.method_name == "start" and target.endswith(".run/0")


class Tabulator:
    """The region-based RHS engine."""

    def __init__(self, sdg: NoHeapSDG, adapter: RuleAdapter,
                 origin_handler: Callable[[str, Hit], None],
                 meter: Optional[StateMeter] = None,
                 skip_thread_edges: bool = False,
                 resilience: Optional[object] = None) -> None:
        self.sdg = sdg
        self.adapter = adapter
        self.origin_handler = origin_handler
        self.meter = meter
        self.skip_thread_edges = skip_thread_edges
        # Cooperative deadline / fault seam (repro.resilience), checked
        # once per worklist pop; DeadlineExceeded raised here unwinds to
        # the taint engine's per-rule ladder.
        self.resilience = resilience
        # region -> fact var -> Meta (first wins)
        self.facts: Dict[RegionKey, Dict[str, Meta]] = {}
        # region -> recorded hits
        self.hits: Dict[RegionKey, List[Hit]] = {}
        self._hit_sigs: Dict[RegionKey, Set[Tuple]] = {}
        # balanced region -> incoming call edges
        self.incomings: Dict[RegionKey, List[Incoming]] = {}
        self._replayed: Set[Tuple[int, int]] = set()  # (id(hit), id(inc))
        self._worklist: Deque[Tuple[RegionKey, str, Meta]] = deque()
        self._app_cache: Dict[str, bool] = {}

    # -- public API -----------------------------------------------------------

    def seed_origin(self, origin_id: str, method: str, var: str,
                    meta: Optional[Meta] = None) -> None:
        region = RegionKey(method, origin_id, is_origin=True)
        self._add_fact(region, var, meta or Meta())

    def run(self) -> None:
        resilience = self.resilience
        while self._worklist:
            if resilience is not None:
                resilience.check("tabulation.step", phase="taint")
            region, var, meta = self._worklist.popleft()
            self._process(region, var, meta)

    # -- helpers ----------------------------------------------------------------

    def _is_app_method(self, qname: str) -> bool:
        cached = self._app_cache.get(qname)
        if cached is None:
            method = self.sdg.program.lookup_method(qname)
            cached = bool(method) and \
                self.sdg.program.is_application_method(method) and \
                not method.is_synthetic
            self._app_cache[qname] = cached
        return cached

    def _add_fact(self, region: RegionKey, var: str, meta: Meta) -> None:
        known = self.facts.setdefault(region, {})
        if var in known:
            return
        known[var] = meta
        if self.meter is not None:
            self.meter.charge()
        self._worklist.append((region, var, meta))

    def _classify_base(self, method: str, base: Optional[str]
                       ) -> Tuple[Optional[str], Optional[Tuple[str, str]]]:
        """Split a store base into (unresolved formal, resolved base)."""
        if base is None:
            return None, None
        target = self.sdg.program.lookup_method(method)
        if target is not None and (base == "this" or
                                   base in target.param_names()):
            return base, None
        return None, (method, base)

    def _record_hit(self, region: RegionKey, hit: Hit) -> None:
        sigs = self._hit_sigs.setdefault(region, set())
        sig = hit.signature()
        if sig in sigs:
            return
        sigs.add(sig)
        self.hits.setdefault(region, []).append(hit)
        if region.is_origin:
            self._deliver_to_origin(region, hit)
        else:
            for incoming in self.incomings.get(region, []):
                self._replay(region, hit, incoming)

    def _deliver_to_origin(self, region: RegionKey, hit: Hit) -> None:
        if hit.kind == "exit":
            # Unbalanced return: flow proceeds to every caller.
            for site in self.sdg.callers_of.get(region.method, []):
                caller_region = RegionKey(site.stmt.method, region.entry,
                                          is_origin=True)
                if hit.exit_var != RET:
                    self._add_fact(caller_region, hit.exit_var,
                                   hit.meta.extend())
                elif site.call.lhs:
                    self._add_fact(caller_region, site.call.lhs,
                                   hit.meta.extend())
        else:
            self.origin_handler(region.entry, hit)

    def _replay(self, region: RegionKey, hit: Hit,
                incoming: Incoming) -> None:
        token = (id(hit), id(incoming))
        if token in self._replayed:
            return
        self._replayed.add(token)
        crossing = hit.meta.crossing or incoming.crossing_at_call or \
            incoming.parent_meta.crossing
        meta = Meta(incoming.parent_meta.steps + hit.meta.steps + 1,
                    crossing,
                    incoming.parent_meta.transitions + hit.meta.transitions)
        base_formal, eff_base = hit.base_formal, hit.eff_base
        if hit.kind == "store" and base_formal is not None and \
                eff_base is None:
            # Translate the formal base to the actual at this call edge.
            actual = None
            for act, formal in self.sdg.bindings(
                    incoming.site, region.method):
                if formal == base_formal:
                    actual = act
                    break
            if actual is not None:
                base_formal, eff_base = self._classify_base(
                    incoming.parent.method, actual)
            else:
                base_formal = None  # untranslatable: fall back to store
        lifted = Hit(hit.kind, hit.stmt, hit.store, hit.sink_display, meta,
                     hit.exit_var, base_formal, eff_base)
        if hit.kind == "exit":
            # RHS summary edge: continue in the caller — at the call-site
            # lhs for a returned value, or at the same heap-channel fact
            # for CS heap threading.
            if hit.exit_var != RET:
                self._add_fact(incoming.parent, hit.exit_var, meta)
            elif incoming.site.call.lhs:
                self._add_fact(incoming.parent, incoming.site.call.lhs,
                               meta)
        elif incoming.parent.is_origin:
            self._deliver_to_origin(incoming.parent, lifted)
        else:
            self._record_hit(incoming.parent, lifted)

    # -- fact processing ------------------------------------------------------------

    def _process(self, region: RegionKey, var: str, meta: Meta) -> None:
        method = region.method
        fact = Fact(method, var)
        if var.startswith("@f:") or var.startswith("@s:"):
            # CS heap-channel fact: besides flowing locally (below), the
            # heap state escapes to every caller.
            self._record_hit(region, Hit("exit", None, None, None,
                                         meta.extend(), exit_var=var))
        # 1. Local def-use edges (sanitizer StringOps cut the flow).
        for edge in self.sdg.succs_of(fact):
            if self.adapter.is_sanitizer_strop(edge.stmt):
                continue
            if edge.dst == RET:
                self._record_hit(region, Hit("exit", edge.stmt, None, None,
                                             meta.extend()))
            else:
                self._add_fact(region, edge.dst, meta.extend())
        # 2. Store statements using this fact as the stored value.
        for store in self.sdg.stores_using(method, var):
            base_formal, eff_base = self._classify_base(method, store.base)
            self._record_hit(region, Hit("store", store.stmt, store, None,
                                         meta.extend(),
                                         base_formal=base_formal,
                                         eff_base=eff_base))
        # 3. Call sites using this fact as argument or receiver.
        for site, positions in self.sdg.calls_using(method, var):
            self._process_call_use(region, var, meta, site, positions)

    def _process_call_use(self, region: RegionKey, var: str, meta: Meta,
                          site: CallSite, positions: List[int]) -> None:
        vulnerable, sanitizer, sink_display = self.adapter.classify(site)
        if sink_display is not None:
            if vulnerable == () or \
                    any(p in vulnerable for p in positions if p >= 0):
                self._record_hit(region, Hit(
                    "sink", site.stmt, None, sink_display, meta.extend()))
        if sanitizer:
            return
        if sink_display is not None:
            # Paper §3.2: no successor edges for sink call statements.
            return
        descended = False
        for target in site.targets:
            if self.skip_thread_edges and is_thread_edge(site, target):
                continue
            for actual, formal in self.sdg.bindings(site, target):
                if actual != var:
                    continue
                descended = True
                self._descend(region, meta, site, target, formal)
        if not descended and site.native_targets and site.call.lhs and \
                var != site.call.receiver and not var.startswith("@"):
            # Conservative default for unmodeled natives: args flow to
            # the return value.
            self._add_fact(region, site.call.lhs, meta.extend())

    def _descend(self, region: RegionKey, meta: Meta, site: CallSite,
                 target: str, formal: str) -> None:
        callee_region = RegionKey(target, formal)
        crossing_at_call = None
        if site.stmt.in_application and not self._is_app_method(target):
            crossing_at_call = site.stmt.ref
        incoming = Incoming(region, site, meta, crossing_at_call)
        self.incomings.setdefault(callee_region, []).append(incoming)
        self._add_fact(callee_region, formal, Meta())
        for hit in list(self.hits.get(callee_region, [])):
            self._replay(callee_region, hit, incoming)
