"""The witness-guided replay oracle.

Takes the flows a static analysis reported, derives a
partial-instrumentation plan from their witness chains
(:mod:`repro.confirm.plan`), replays the program concretely in both
interpreter modes (normal, and fault-injection for catch-block /
INFO_LEAK flows), and classifies every flow as ``confirmed`` /
``refuted`` / ``inconclusive`` (:mod:`repro.confirm.verdicts`).

The static analysis ran on the *modeled* program while the replay runs
on the execution-prepared one (:func:`execution_options`: entrypoint
synthesis only), so instruction ids differ between the two; flows and
dynamic events are therefore matched on containing-method qname +
sink display + label kind + sanitizer annotations, never on iids.

Matching granularity is therefore the *method*: when several reported
flows share a sink method and display (e.g. adjacent ``println`` calls
in the motivating example), one genuinely tainted sink event witnesses
them all, and the oracle resolves the ambiguity optimistically —
confirming a flow no unambiguous evidence refutes.  This caps measured
oracle precision on corpora whose cases stack same-display sinks in
one method (``benchmarks/confirmation.py`` records it honestly); the
generated corpus plants one flow per method, where the attribution is
exact.

Determinism: the replay is a pure function of (program, seed, fault
mode) — sources mint seeded payloads, the schedule is sequential —
and verdicts are canonically ordered, so repeated runs of the same
program produce byte-identical verdict lists.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..interp.interpreter import RunResult, execute
from ..interp.validation import parse_label, prepare_for_execution
from ..obs import Observability
from ..taint.rules import RuleSet, SecurityRule, default_rules
from .plan import FlowProbe, InstrumentationPlan, build_plan
from .verdicts import (CONFIRMED, INCONCLUSIVE, REFUTED,
                       ConfirmationResult, FlowVerdict,
                       canonical_verdicts)

# Default payload seed: nonzero so replay payloads are visibly
# seed-stamped (``<text#s1>``) and distinct from legacy validation runs.
DEFAULT_SEED = 1


class ReplayOracle:
    """Confirms or refutes reported flows by partial-instrumentation
    replay."""

    def __init__(self, rules: Optional[RuleSet] = None,
                 fuel: int = 200_000, seed: int = DEFAULT_SEED,
                 obs=None) -> None:
        self.rules = rules or default_rules()
        self.fuel = fuel
        self.seed = seed
        self.obs = obs or Observability()

    # -- public API ---------------------------------------------------------

    def confirm(self, flows: Iterable, sources: List[str],
                deployment_descriptor: Optional[Dict[str, str]] = None,
                program=None) -> ConfirmationResult:
        """Classify ``flows`` against a replay of ``sources``.

        ``program`` may carry a pre-built execution program (from
        :func:`prepare_for_execution`) to share across configs.
        """
        plan = build_plan(flows)
        result = ConfirmationResult(
            seed=self.seed,
            instrumented_sources=len(plan.source_methods),
            instrumented_sinks=len(plan.sink_methods))
        metrics = self.obs.metrics
        metrics.inc("confirm.probes", len(plan))
        if not plan.probes:
            return result
        if program is None:
            with self.obs.span("confirm.prepare"):
                program = prepare_for_execution(sources,
                                                deployment_descriptor)
        metrics.gauge("confirm.instrumented_methods",
                      len(plan.instrumented_methods))

        runs = self._replay(program, plan, result)
        verdicts = [self._classify(probe, program, runs)
                    for probe in plan.probes]
        result.verdicts = canonical_verdicts(verdicts)
        for name, count in result.counts().items():
            if count:
                metrics.inc(f"confirm.{name}", count)
        return result

    # -- replay -------------------------------------------------------------

    def _replay(self, program, plan: InstrumentationPlan,
                result: ConfirmationResult
                ) -> List[Tuple[bool, RunResult]]:
        """One partially-instrumented run per interpreter mode."""
        runs: List[Tuple[bool, RunResult]] = []
        for fault in (False, True):
            with self.obs.span("confirm.replay", fault=fault) as span:
                run = execute(program, fuel=self.fuel,
                              fault_injection=fault,
                              source_methods=plan.source_methods,
                              sink_methods=plan.sink_methods,
                              seed=self.seed)
                span.set(steps=run.steps, events=len(run.events),
                         aborted=len(run.aborted_entrypoints))
            result.replays += 1
            result.replay_steps += run.steps
            result.aborted_entrypoints.extend(run.aborted_entrypoints)
            result.fuel_exhausted.extend(run.fuel_exhausted)
            runs.append((fault, run))
        return runs

    # -- classification -----------------------------------------------------

    def _classify(self, probe: FlowProbe, program,
                  runs: List[Tuple[bool, RunResult]]) -> FlowVerdict:
        try:
            rule = self.rules.by_name(probe.rule)
        except KeyError:
            return self._verdict(probe, INCONCLUSIVE, "unknown-rule")
        if program.lookup_method(probe.sink_method) is None:
            return self._verdict(probe, INCONCLUSIVE,
                                 "sink-not-executable")
        if program.lookup_method(probe.source_method) is None:
            return self._verdict(probe, INCONCLUSIVE,
                                 "source-not-executable")

        witnessing: List[str] = []     # labels that confirm the flow
        sanitized: List[str] = []      # matching kind/origin, endorsed
        witness_fault_only = True
        sink_reached_with_source = False
        sink_reached = False
        source_entered = False
        for fault, run in runs:
            entered = probe.source_method in run.entered_methods
            source_entered = source_entered or entered
            for event in run.events:
                if event.method != probe.sink_method:
                    continue
                if event.display != probe.sink_display:
                    continue
                sink_reached = True
                sink_reached_with_source = (sink_reached_with_source
                                            or entered)
                for label in event.all_taint:
                    parsed = parse_label(label)
                    if parsed.origin_method != probe.source_method:
                        continue
                    if parsed.witnesses(rule.name,
                                        frozenset(rule.sanitizers)):
                        witnessing.append(label)
                        if not fault:
                            witness_fault_only = False
                    elif self._kind_matches(parsed, rule):
                        sanitized.append(label)

        if witnessing:
            return self._verdict(probe, CONFIRMED, "tainted-witness",
                                 labels=witnessing,
                                 fault_replay=witness_fault_only)
        if sanitized:
            return self._verdict(probe, REFUTED, "sanitized",
                                 labels=sanitized)
        if sink_reached_with_source:
            return self._verdict(probe, REFUTED, "no-tainted-witness")
        budget_hit = any(run.fuel_exhausted for _, run in runs)
        if budget_hit:
            return self._verdict(probe, INCONCLUSIVE,
                                 "replay-budget-exhausted")
        if not source_entered:
            return self._verdict(probe, INCONCLUSIVE,
                                 "source-not-reached")
        return self._verdict(probe, INCONCLUSIVE, "sink-not-reached")

    @staticmethod
    def _kind_matches(parsed, rule: SecurityRule) -> bool:
        from ..interp.validation import LABEL_KINDS
        return parsed.kind in LABEL_KINDS.get(rule.name, {"src"})

    @staticmethod
    def _verdict(probe: FlowProbe, verdict: str, reason: str,
                 labels: Optional[List[str]] = None,
                 fault_replay: bool = False) -> FlowVerdict:
        return FlowVerdict(
            rule=probe.rule, source=probe.source, sink=probe.sink,
            sink_display=probe.sink_display, verdict=verdict,
            reason=reason,
            labels=tuple(sorted(set(labels or ()))),
            fault_replay=fault_replay)


def confirm_result(result, sources: List[str],
                   deployment_descriptor: Optional[Dict[str, str]]
                   = None,
                   rules: Optional[RuleSet] = None,
                   fuel: int = 200_000, seed: int = DEFAULT_SEED,
                   obs=None, program=None) -> ConfirmationResult:
    """Confirm every flow of a ``TAJResult`` (convenience wrapper)."""
    oracle = ReplayOracle(rules=rules, fuel=fuel, seed=seed, obs=obs)
    return oracle.confirm(result.flows, sources,
                          deployment_descriptor, program=program)
