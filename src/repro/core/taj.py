"""The TAJ facade: the paper's two-stage analysis as one call.

Stage 1 — pointer analysis and call-graph construction (§3.1), with the
custom context-sensitivity policy, optional priority-driven ordering
(§6.1), and the whitelist code reduction.

Stage 2 — taint tracking by thin slicing over the HSDG (§3.2), carrier
detection (§4.1.1), bounds (§6.2), and LCP-grouped reporting (§5).

Every phase runs inside a tracer span from :mod:`repro.obs`; the span
durations are the single timing source for both :class:`PhaseTimes` and
the metrics registry.  Pass an :class:`~repro.obs.Observability` bundle
to keep (and export) the trace, metrics, and provenance audit; without
one, each call gets a private bundle whose registry snapshot lands in
``TAJResult.metrics``.

Resilience (``docs/robustness.md``): every phase is guarded by the
run's :class:`~repro.resilience.ResilienceContext`, built from the
config's ``deadline_seconds`` / ``resilient`` knobs plus an optional
:class:`~repro.resilience.FaultPlan`.  When nothing is armed the
context is inert and the legacy contract holds — exceptions propagate.
When armed, a phase failure is folded into the returned
:class:`TAJResult` instead: structured diagnostics, recorded
degradations, and a ``completeness`` verdict.

Typical use::

    from repro import TAJ, TAJConfig

    taj = TAJ(TAJConfig.hybrid_optimized())
    result = taj.analyze_sources([open("app.jlang").read()])
    for issue in result.report.issues:
        print(issue.rule, issue.sink_method, issue.remediation)
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..bounds import Budget
from ..callgraph import PriorityOrder
from ..confirm.oracle import ReplayOracle
from ..modeling import (COLLECTION_CLASSES, FACTORY_METHODS, ModelOptions,
                        PreparedProgram, default_natives, prepare)
from ..obs import Observability
from ..pointer import (ChaoticOrder, ContextPolicy, PointerAnalysis,
                       PolicyConfig)
from ..pointer.heapgraph import HeapGraph
from ..reporting import build_report
from ..resilience import (COMPLETE, FAILED, Deadline, DeadlineExceeded,
                          FaultPlan, ResilienceContext)
from ..sdg.hsdg import DirectEdges
from ..sdg.noheap import NoHeapSDG
from ..slicing.cs import CSExtendedSDG
from ..taint import RuleSet, TaintEngine, default_rules
from .config import TAJConfig
from .results import PhaseTimes, TAJResult


class TAJ:
    """Taint Analysis for jlang — the reproduction's entry point."""

    def __init__(self, config: Optional[TAJConfig] = None,
                 rules: Optional[RuleSet] = None,
                 obs: Optional[Observability] = None,
                 faults: Optional[FaultPlan] = None) -> None:
        self.config = config or TAJConfig.hybrid_optimized()
        self.rules = rules or default_rules()
        self.obs = obs
        # A scripted fault plan (repro.resilience.faults); installed at
        # the pipeline's seams for every analyze_* call.
        self.faults = faults
        # The summary-cache backend (repro.summaries), created lazily
        # on the first "summary" run and kept for the instance's
        # lifetime: analyzing several apps through one TAJ object
        # reuses the loaded cache in memory, not just on disk.
        self._summary_backend: Optional[object] = None

    # -- public API ------------------------------------------------------------

    def analyze_sources(self, sources: List[str],
                        deployment_descriptor: Optional[Dict[str, str]]
                        = None,
                        extra_entrypoints: Optional[List[str]] = None,
                        obs: Optional[Observability] = None
                        ) -> TAJResult:
        """Model + analyze jlang application sources."""
        obs = self._resolve_obs(obs)
        self._start_profiler(obs)
        res = self._make_resilience()
        try:
            with obs.tracer.span("phase.modeling",
                                 sources=len(sources)) as span:
                prepared = prepare(sources, deployment_descriptor,
                                   self.config.models, extra_entrypoints,
                                   obs=obs,
                                   resilience=res if res.active else None)
        except Exception as exc:
            if not res.active:
                raise
            if isinstance(exc, DeadlineExceeded):
                # A deadline expiry is never a failure — the (empty)
                # result is partial, same as at every later phase.
                res.degrade("modeling", "deadline", "abort", str(exc))
            else:
                # Modeling is otherwise essential: without a program
                # there is nothing to analyze.
                res.fail("modeling", exc)
            result = TAJResult(config_name=self.config.name,
                               times=PhaseTimes(modeling=span.duration))
            return self._finalize(result, res, obs)
        obs.sample_memory()
        times = PhaseTimes(modeling=span.duration)
        return self.analyze_prepared(prepared, times, obs=obs,
                                     resilience=res,
                                     confirm_sources=sources,
                                     confirm_descriptor=
                                     deployment_descriptor)

    def analyze_prepared(self, prepared: PreparedProgram,
                         times: Optional[PhaseTimes] = None,
                         obs: Optional[Observability] = None,
                         resilience: Optional[ResilienceContext] = None,
                         confirm_sources: Optional[List[str]] = None,
                         confirm_descriptor: Optional[Dict[str, str]]
                         = None) -> TAJResult:
        """Analyze an already modeled program (lets callers share the
        modeling phase across configurations).

        ``confirm_sources`` carries the raw sources forward for the
        dynamic-confirmation phase (the replay runs on a separately
        prepared execution program, not on the analysis model); without
        them a ``confirm`` configuration skips confirmation silently.
        """
        config = self.config
        obs = self._resolve_obs(obs)
        self._start_profiler(obs)
        tracer = obs.tracer
        res = resilience or self._make_resilience()
        armed = res if res.active else None
        times = times or PhaseTimes()
        result = TAJResult(config_name=config.name, times=times)
        program = prepared.program

        # ---- stage 1: pointer analysis + call graph -----------------------
        try:
            with tracer.span("phase.pointer_analysis",
                             config=config.name) as span:
                policy = ContextPolicy(self._policy_config())
                order = self._ordering(config)
                excluded = set()
                if config.use_whitelist:
                    excluded = set(prepared.whitelist) | {
                        name for name in config.whitelist_extra
                        if (cls := program.get_class(name))
                        and cls.is_library}
                analysis = PointerAnalysis(
                    program, policy, natives=default_natives(),
                    order=order, budget=config.budget,
                    excluded_classes=excluded, obs=obs, resilience=armed)
                analysis.solve()
                span.set(cg_nodes=analysis.call_graph.node_count(),
                         truncated=analysis.truncated)
        except Exception as exc:
            if armed is None:
                raise
            res.fail("pointer_analysis", exc)
            times.pointer_analysis = span.duration
            return self._finalize(result, res, obs)
        times.pointer_analysis = span.duration
        obs.sample_memory()
        result.cg_nodes = analysis.call_graph.node_count()
        result.cg_edges = analysis.call_graph.edge_count()
        result.truncated = analysis.truncated
        if analysis.deadline_exceeded:
            # The solver stopped on the wall clock and kept a partial
            # call graph — the deadline analogue of the node budget.
            res.degrade("pointer_analysis", "deadline",
                        "truncate-callgraph")

        # ---- stage 2: dependence graphs + taint tracking ---------------------
        try:
            if armed is not None:
                armed.check("sdg.build", phase="sdg")
            with tracer.span("phase.sdg", strategy=config.slicing) as span:
                with tracer.span("sdg.build"):
                    if config.slicing == "cs":
                        sdg = CSExtendedSDG(program, analysis.call_graph,
                                            analysis)
                    else:
                        sdg = NoHeapSDG(program, analysis.call_graph)
                with tracer.span("sdg.direct_edges"):
                    direct = DirectEdges(sdg, analysis)
                with tracer.span("sdg.heap_graph"):
                    heap_graph = HeapGraph(analysis)
                obs.metrics.gauge("sdg.call_sites",
                                  sum(len(sites) for sites
                                      in sdg.call_sites.values()))
            times.sdg = span.duration
        except DeadlineExceeded as exc:
            res.degrade("sdg", "deadline", "abort", str(exc))
            return self._finalize(result, res, obs)
        except Exception as exc:
            if armed is None:
                raise
            res.fail("sdg", exc)
            return self._finalize(result, res, obs)
        obs.sample_memory()

        try:
            with tracer.span("phase.taint",
                             strategy=config.slicing) as span:
                backend = None
                if config.slicing == "summary":
                    # Key computation + cache load, attributed to its
                    # own span: this is the amortizable cost the warm
                    # run pays instead of re-slicing.
                    with tracer.span("phase.summarize") as sspan:
                        backend = self._make_summary_backend()
                        backend.prepare(sdg)
                        sspan.set(
                            cached_entries=(len(backend.cache.entries)
                                            if backend.cache is not None
                                            else 0))
                engine = TaintEngine(sdg, direct, heap_graph, self.rules,
                                     config.budget,
                                     strategy=config.slicing, obs=obs,
                                     resilience=armed,
                                     summary_backend=backend)
                taint = engine.run()
                span.set(flows=len(taint.flows), failed=taint.failed)
        except Exception as exc:
            if armed is None:
                raise
            res.fail("taint", exc)
            times.taint = span.duration
            return self._finalize(result, res, obs)
        times.taint = span.duration
        obs.sample_memory()

        result.flows = taint.flows
        result.failed = taint.failed
        result.failure = taint.failure
        result.truncated = result.truncated or taint.truncated
        result.stats = dict(prepared.stats)
        result.stats.update(analysis.stats)
        for phase, seconds in analysis.phase_seconds.items():
            result.stats[f"time_{phase}"] = seconds
        result.stats["suppressed_by_length"] = taint.suppressed_by_length
        result.stats["state_units"] = taint.state_units
        result.stats["rules_completed"] = len(taint.completed_rules)

        # ---- reporting (§5) ---------------------------------------------------
        try:
            if armed is not None:
                armed.check("reporting.build", phase="reporting")
            with tracer.span("phase.reporting") as span:
                result.report = build_report(taint.flows, self.rules,
                                             program, obs=obs)
                span.set(issues=result.report.count(),
                         raw_flows=len(taint.flows))
            times.reporting = span.duration
        except DeadlineExceeded as exc:
            res.degrade("reporting", "deadline", "skip-report", str(exc))
        except Exception as exc:
            if armed is None:
                raise
            # Reporting is non-essential — the raw flows survive; the
            # report is just not grouped.
            res.diagnostics.absorb("reporting", exc)
            res.degrade("reporting", "fault", "skip-report", str(exc))

        # ---- dynamic confirmation (repro.confirm) -----------------------------
        if config.confirm and confirm_sources is not None:
            try:
                if armed is not None:
                    armed.check("confirm.replay", phase="confirm")
                with tracer.span("phase.confirm",
                                 flows=len(result.flows)) as span:
                    oracle = ReplayOracle(rules=self.rules,
                                          fuel=config.confirm_fuel,
                                          seed=config.confirm_seed,
                                          obs=obs)
                    result.confirmation = oracle.confirm(
                        result.flows, confirm_sources,
                        confirm_descriptor)
                    span.set(**result.confirmation.counts())
                times.confirm = span.duration
            except DeadlineExceeded as exc:
                res.degrade("confirm", "deadline", "skip-confirm",
                            str(exc))
            except Exception as exc:
                if armed is None:
                    raise
                # Confirmation is advisory — the static report stands;
                # the flows just stay unclassified.
                res.diagnostics.absorb("confirm", exc)
                res.degrade("confirm", "fault", "skip-confirm",
                            str(exc))
        return self._finalize(result, res, obs)

    # -- internals ----------------------------------------------------------------

    def _start_profiler(self, obs: Observability) -> None:
        """Install (config-driven) and start the sampling profiler on
        the run's bundle.  Idempotent: the analyze_sources →
        analyze_prepared path calls it twice; one profiler runs."""
        if getattr(obs, "profiler", None) is None:
            if not self.config.profile or not obs.enabled:
                return
            from ..obs import SamplingProfiler
            obs.profiler = SamplingProfiler(
                interval=self.config.profile_interval,
                tracer=obs.tracer)
        if not obs.profiler.running:
            obs.profiler.start()

    def _make_summary_backend(self):
        """The instance's summary backend (repro.summaries), created on
        first use from the config's cache directory."""
        if self._summary_backend is None:
            from ..summaries import SummaryBackend
            self._summary_backend = SummaryBackend(
                self.config.summary_cache_dir)
        return self._summary_backend

    def _make_resilience(self) -> ResilienceContext:
        config = self.config
        deadline = None
        if config.deadline_seconds is not None:
            deadline = Deadline(config.deadline_seconds).start()
        return ResilienceContext(deadline=deadline, faults=self.faults,
                                 quarantine=config.resilient,
                                 ladder=config.resilient)

    def _finalize(self, result: TAJResult, res: ResilienceContext,
                  obs: Observability) -> TAJResult:
        """Fold the run's resilience record into the result and close
        out the observability bundle (every exit path funnels here)."""
        result.degradations = list(res.degradations)
        result.diagnostics = list(res.diagnostics)
        if res.failed_phase is not None:
            result.failed = True
            if result.failure is None:
                last = result.diagnostics[-1]
                result.failure = f"{res.failed_phase}: {last.message}"
        completeness = res.completeness()
        if result.failed and completeness == COMPLETE:
            # A legacy budget failure with no resilience record (the
            # paper's CS OOM, resilience off) is still not "complete".
            completeness = FAILED
        result.completeness = completeness
        metrics = obs.metrics
        if result.degradations:
            metrics.inc("resilience.degradations",
                        len(result.degradations))
        if result.diagnostics:
            metrics.inc("resilience.diagnostics",
                        len(result.diagnostics))
        remaining = res.deadline_remaining()
        if remaining is not None:
            metrics.gauge("resilience.deadline_remaining_seconds",
                          round(remaining, 6))
        obs.finish()
        profiler = getattr(obs, "profiler", None)
        if profiler is not None:
            if profiler.running:
                profiler.stop()
            result.profile = profiler.payload()
        result.metrics = metrics.snapshot()
        result.provenance = obs.audit.to_payload()
        return result

    def _resolve_obs(self, obs: Optional[Observability]) -> Observability:
        """Explicit argument > bundle given at construction > a fresh
        private bundle for this call (so default runs still collect
        metrics into ``TAJResult.metrics``)."""
        if obs is not None:
            return obs
        if self.obs is not None:
            return self.obs
        return Observability()

    def _policy_config(self) -> PolicyConfig:
        config = self.config
        if config.context_insensitive_pointers:
            return PolicyConfig.insensitive()
        return PolicyConfig(
            object_sensitive=config.object_sensitive,
            collections_unlimited=config.collections_unlimited,
            factory_call_strings=config.factory_call_strings,
            taint_api_call_strings=config.taint_api_call_strings,
            collection_classes=set(COLLECTION_CLASSES),
            factory_methods=set(FACTORY_METHODS),
            taint_api_methods=self.rules.taint_api_methods(),
        )

    def _ordering(self, config: TAJConfig):
        if not config.prioritized:
            return ChaoticOrder()
        max_nodes = config.budget.max_cg_nodes or 10 ** 9
        return PriorityOrder(self.rules.all_source_methods(), max_nodes)


def analyze(sources: List[str], config: Optional[TAJConfig] = None,
            rules: Optional[RuleSet] = None,
            faults: Optional[FaultPlan] = None, **kwargs) -> TAJResult:
    """One-shot convenience wrapper around :class:`TAJ`."""
    return TAJ(config, rules, faults=faults).analyze_sources(sources,
                                                             **kwargs)
