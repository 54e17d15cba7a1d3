"""The taint engine: runs every security rule through a slicing strategy.

Resilience (``repro.resilience``): when the engine is given a
:class:`~repro.resilience.ResilienceContext`, each rule is sliced behind
a cooperative seam check (``slicing.<strategy>``), and a
:class:`~repro.bounds.BudgetExhausted` or
:class:`~repro.resilience.DeadlineExceeded` raised mid-sweep walks the
degradation ladder (cs → hybrid → ci) instead of discarding the run:
flows from completed rules are kept, the tripped rule is re-sliced with
the cheaper strategy, and each step is recorded as a
:class:`~repro.resilience.Degradation`.  Without a context (or with the
ladder disabled) a budget trip is the paper's CS out-of-memory failure:
the run is marked failed — but flows from rules that completed are still
reported, never wiped.

The sweep is serial, one rule after another.  The engine's flows leave
in :func:`~repro.taint.flows.canonical_flows` order, the form every
consumer downstream (grouping, JSON, the differential harness) reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bounds import Budget, BudgetExhausted, StateMeter
from ..obs import DISABLED
from ..pointer.heapgraph import HeapGraph
from ..resilience import (Degradation, DeadlineExceeded, next_strategy,
                          trigger_of)
from ..sdg.hsdg import DirectEdges
from ..sdg.noheap import NoHeapSDG
from ..slicing import CISlicer, CSSlicer, HybridSlicer, Slicer
from ..slicing.base import enumerate_sources
from .flows import TaintFlow, canonical_flows
from .rules import RuleSet


@dataclass
class TaintResult:
    """Flows found by one engine run (all rules).

    Timing note: the engine keeps no clock of its own — the taint
    phase's duration is the ``phase.taint`` tracer span (surfaced as
    ``TAJResult.times.taint``), the single timing source.
    """

    flows: List[TaintFlow] = field(default_factory=list)
    failed: bool = False              # hard budget failure (CS "OOM")
    failure: Optional[str] = None
    truncated: bool = False           # a soft bound trimmed the slice
    suppressed_by_length: int = 0
    state_units: int = 0              # abstract memory consumed (CS)
    # Degradation-ladder steps taken during the sweep (also recorded on
    # the ResilienceContext, and from there on TAJResult).
    degradations: List[Degradation] = field(default_factory=list)
    # Rules whose slice ran to completion (under whichever strategy was
    # current at the time); rules missing from this list were cut short.
    completed_rules: List[str] = field(default_factory=list)
    # Strategy in effect when the sweep ended (after any fallbacks).
    final_strategy: Optional[str] = None

    def by_rule(self) -> Dict[str, List[TaintFlow]]:
        out: Dict[str, List[TaintFlow]] = {}
        for flow in self.flows:
            out.setdefault(flow.rule, []).append(flow)
        return out


def make_slicer(strategy: str, sdg: NoHeapSDG, direct: DirectEdges,
                heap_graph: HeapGraph, budget: Budget,
                meter: Optional[StateMeter] = None,
                resilience: Optional[object] = None,
                carrier_cache: Optional[Dict] = None,
                summary_backend: Optional[object] = None) -> Slicer:
    if strategy == "hybrid":
        return HybridSlicer(sdg, direct, heap_graph, budget, meter=meter,
                            resilience=resilience,
                            carrier_cache=carrier_cache)
    if strategy == "summary":
        from ..summaries import SummarySlicer
        return SummarySlicer(sdg, direct, heap_graph, budget, meter=meter,
                             resilience=resilience,
                             carrier_cache=carrier_cache,
                             backend=summary_backend)
    if strategy == "cs":
        return CSSlicer(sdg, direct, heap_graph, budget, meter=meter,
                        resilience=resilience,
                        carrier_cache=carrier_cache)
    if strategy == "ci":
        return CISlicer(sdg, direct, heap_graph, budget,
                        resilience=resilience,
                        carrier_cache=carrier_cache)
    raise ValueError(f"unknown slicing strategy {strategy!r}")


class TaintEngine:
    """Applies a rule set with one slicing strategy over one SDG."""

    def __init__(self, sdg: NoHeapSDG, direct: DirectEdges,
                 heap_graph: HeapGraph, rules: RuleSet, budget: Budget,
                 strategy: str = "hybrid", obs: Optional[object] = None,
                 resilience: Optional[object] = None,
                 summary_backend: Optional[object] = None) -> None:
        self.sdg = sdg
        self.direct = direct
        self.heap_graph = heap_graph
        self.rules = rules
        self.budget = budget
        self.strategy = strategy
        self.obs = DISABLED if obs is None else obs
        self.resilience = resilience
        # Summary-cache backend (repro.summaries.SummaryBackend), used
        # only by strategy == "summary"; prepared by the caller against
        # this SDG before run().
        self.summary_backend = summary_backend
        # Rule-name → CarrierIndex, shared across every slicer this
        # engine creates: the index is a whole-SDG scan, fixed per
        # (rule, nested-depth bound), and a ladder rung would otherwise
        # rebuild it for the rule it retries.
        self._carrier_cache: Dict = {}

    # -- strategy construction -----------------------------------------------

    def _make(self, strategy: str,
              meter: Optional[StateMeter]) -> Slicer:
        slicer = make_slicer(strategy, self.sdg, self.direct,
                             self.heap_graph, self.budget, meter,
                             resilience=self.resilience,
                             carrier_cache=self._carrier_cache,
                             summary_backend=self.summary_backend)
        modref = getattr(self.sdg, "modref", None)
        if strategy == "cs" and meter is not None and modref is not None:
            # CS thin slicing threads heap dependencies as additional
            # method parameters; each synthetic parameter costs state
            # up front — the paper's scalability bottleneck.
            meter.charge(sum(len(v) for v in modref.values()))
        return slicer

    def _recover(self, result: TaintResult, strategy: str,
                 exc: Exception) -> Tuple[str, Optional[Slicer]]:
        """One step of the degradation ladder, or abort the sweep.

        Records the step on ``result`` and returns ``(strategy,
        slicer)``; a ``None`` slicer means the sweep stops — flows
        collected so far are kept.
        """
        res = self.resilience
        fallback = None
        if res is not None and res.ladder:
            fallback = next_strategy(strategy)
        trigger = trigger_of(exc)
        if fallback is None:
            if res is not None and res.active:
                result.degradations.append(
                    res.degrade("taint", trigger, "abort", str(exc)))
            if not isinstance(exc, DeadlineExceeded):
                # The paper's CS OOM: a budget trip with no rung left.
                # A deadline abort is a *partial* result, not a failure.
                result.failed = True
                result.failure = str(exc)
            return strategy, None
        result.degradations.append(
            res.degrade("taint", trigger, fallback, str(exc)))
        if strategy == "cs" and hasattr(self.sdg, "disable_channels"):
            # Fallback slicers see a plain no-heap SDG: heap channels
            # (and their per-call threading) are a CS-only construct.
            self.sdg.disable_channels()
        # Fresh slicer, no meter: the fallback must not inherit the
        # exhausted state budget or it would trip again instantly.
        return fallback, self._make(fallback, None)

    # -- the sweep -----------------------------------------------------------

    def run(self) -> TaintResult:
        rules = list(self.rules)
        result = self._run_serial(rules)
        # Canonical flow order: the form everything downstream
        # (grouping, JSON, differential harness) consumes.
        result.flows = canonical_flows(result.flows)
        progress = getattr(self.obs, "progress", None)
        if progress is not None:
            progress.update(flows=len(result.flows))
            progress.clear("rule", "rules")
        metrics = self.obs.metrics
        metrics.inc("taint.rules_consulted", len(rules))
        metrics.inc("taint.flows", len(result.flows))
        metrics.inc("taint.suppressed_by_length",
                    result.suppressed_by_length)
        metrics.gauge("taint.state_units", result.state_units)
        if result.degradations:
            metrics.inc("taint.degradations", len(result.degradations))
        if result.failed:
            metrics.inc("taint.budget_failures")
        if self.summary_backend is not None:
            self.summary_backend.publish(metrics)
        return result

    def _run_serial(self, rules: List) -> TaintResult:
        obs = self.obs
        tracer = obs.tracer
        audit = obs.audit
        res = self.resilience
        result = TaintResult()
        strategy = self.strategy
        meter = StateMeter(self.budget.max_state_units)
        try:
            slicer: Optional[Slicer] = self._make(strategy, meter)
        except (BudgetExhausted, DeadlineExceeded) as exc:
            # CS's upfront channel charge can exhaust the budget before
            # the first rule runs.
            strategy, slicer = self._recover(result, strategy, exc)
        progress = getattr(obs, "progress", None)
        index = 0
        while slicer is not None and index < len(rules):
            rule = rules[index]
            if progress is not None:
                progress.update(rule=rule.name,
                                rules=f"{index + 1}/{len(rules)}")
            try:
                if res is not None:
                    res.check(f"slicing.{strategy}", phase="taint")
                with tracer.span("taint.rule", rule=rule.name,
                                 strategy=strategy) as span:
                    flows = slicer.slice_rule(rule)
                    span.set(flows=len(flows))
            except (BudgetExhausted, DeadlineExceeded) as exc:
                result.truncated = result.truncated or slicer.truncated
                result.suppressed_by_length += slicer.suppressed_by_length
                strategy, slicer = self._recover(result, strategy, exc)
                continue  # retry the same rule on the fallback rung
            except Exception as exc:
                if res is None or not res.active:
                    raise
                # Quarantine the rule: record a diagnostic, keep going.
                res.diagnostics.absorb("taint", exc, rule=rule.name)
                index += 1
                continue
            obs.metrics.record_time("taint.rule_seconds", span.duration)
            obs.metrics.record_value("taint.rule_flows", len(flows))
            if audit.enabled:
                # The witness chain starts at the rule's enumerated
                # source seeds; each surviving flow records what was
                # consulted on its way into the report.
                seeds = len(enumerate_sources(self.sdg, rule))
                audit.record_rule(rule, seeds, len(flows))
                for flow in flows:
                    audit.record_flow(flow, rule, seeds)
            result.flows.extend(flows)
            result.completed_rules.append(rule.name)
            index += 1
        if slicer is not None:
            result.truncated = result.truncated or slicer.truncated
            result.suppressed_by_length += slicer.suppressed_by_length
        result.state_units = meter.used
        result.final_strategy = strategy
        return result
