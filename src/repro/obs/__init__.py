"""``repro.obs`` — zero-dependency observability for the TAJ pipeline.

Three instruments behind one bundle (:class:`Observability`):

* :class:`~repro.obs.tracer.Tracer` — hierarchical span tracer; every
  pipeline phase (modeling, pointer analysis, SDG construction, taint
  tracking, reporting) opens exactly one top-level ``phase.*`` span,
  with nested spans for sub-passes.  Exportable as JSONL or Chrome
  trace-event JSON (:mod:`repro.obs.export`).
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  timer/value histograms with p50/p95/max summaries; absorbs the
  pointer kernel's counters, worklist depths, points-to set sizes, and
  ``tracemalloc`` memory high-water marks.
* :class:`~repro.obs.provenance.ProvenanceAudit` — per-flow witness
  chains (source seed → path length → rules/sanitizers consulted →
  §5 grouping decision), opt-in via ``Observability(audit=True)``.

The module-level :data:`DISABLED` singleton is the no-op recorder: all
instrumentation points accept it and degrade to (nearly) free calls, so
un-instrumented runs pay no measurable overhead.  Memory sampling is
opt-in (``memory=True``) because ``tracemalloc`` itself is costly.

Naming conventions and exporter formats: ``docs/observability.md``.
"""

from __future__ import annotations

import tracemalloc
from typing import Dict, Optional, Union

from .export import (chrome_trace_events, span_dicts, write_audit_json,
                     write_chrome_trace, write_metrics_json,
                     write_spans_jsonl)
from .ledger import (LedgerError, append_record, comparable_records,
                     config_fingerprint, corpus_hash, host_fingerprint,
                     read_ledger, record_from_result)
from .metrics import (Histogram, MetricsRegistry, NULL_REGISTRY,
                      NullMetricsRegistry, percentile)
from .profile import ProfileData, SamplingProfiler, write_collapsed
from .progress import NULL_PROGRESS, NullProgress, Progress
from .provenance import (FlowWitness, NULL_AUDIT, NullProvenanceAudit,
                         ProvenanceAudit, RuleConsultation)
from .tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "DISABLED", "FlowWitness", "Histogram", "LedgerError",
    "MetricsRegistry", "NullMetricsRegistry", "NullProgress",
    "NullProvenanceAudit", "NullTracer", "Observability", "ProfileData",
    "Progress", "ProvenanceAudit", "RuleConsultation",
    "SamplingProfiler", "Span", "Tracer", "append_record",
    "chrome_trace_events", "comparable_records", "config_fingerprint",
    "corpus_hash", "host_fingerprint", "percentile", "read_ledger",
    "record_from_result", "span_dicts", "write_audit_json",
    "write_chrome_trace", "write_collapsed", "write_metrics_json",
    "write_spans_jsonl",
]


class Observability:
    """Tracer + metrics registry + provenance audit, as one handle.

    The default construction enables the tracer and the registry (both
    cheap at the pipeline's phase/pass/rule granularity); the audit,
    memory sampling, the sampling profiler, and the progress heartbeat
    are opt-in::

        obs = Observability(audit=True, memory=True, profile=True)
        result = TAJ(config, obs=obs).analyze_sources([source])
        write_chrome_trace(obs.tracer, "trace.json")
        write_collapsed(obs.profiler.data, "profile.collapsed")
    """

    enabled = True

    def __init__(self,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 audit: Union[bool, ProvenanceAudit] = False,
                 memory: bool = False,
                 profile: Union[bool, SamplingProfiler] = False,
                 progress: Union[bool, Progress] = False) -> None:
        self.tracer = Tracer() if tracer is None else tracer
        self.metrics = MetricsRegistry() if metrics is None else metrics
        if audit is True:
            self.audit = ProvenanceAudit()
        elif audit:
            self.audit = audit
        else:
            self.audit = NULL_AUDIT
        # Phase-attributed sampling profiler (repro.obs.profile): the
        # facade starts/stops it around each pipeline run.
        if profile is True:
            self.profiler: Optional[SamplingProfiler] = \
                SamplingProfiler(tracer=self.tracer)
        elif profile:
            self.profiler = profile
            if self.profiler.tracer is None:
                self.profiler.tracer = self.tracer
        else:
            self.profiler = None
        # Live progress heartbeat (repro.obs.progress): seams update
        # it; the CLI's --progress starts the printing thread.
        if progress is True:
            self.progress: Union[Progress, NullProgress] = \
                Progress(tracer=self.tracer)
        elif progress:
            self.progress = progress
            if getattr(self.progress, "tracer", None) is None:
                self.progress.tracer = self.tracer
        else:
            self.progress = NULL_PROGRESS
        self._memory = memory
        self._owns_tracemalloc = False
        if memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_tracemalloc = True

    # -- conveniences ------------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        return self.tracer.span(name, **attrs)

    def sample_memory(self) -> None:
        """Record current/peak traced memory as gauges (no-op unless
        constructed with ``memory=True`` and tracemalloc is tracing)."""
        if not self._memory or not tracemalloc.is_tracing():
            return
        current, peak = tracemalloc.get_traced_memory()
        self.metrics.gauge("memory.current_bytes", current)
        self.metrics.gauge_max("memory.peak_bytes", peak)

    def finish(self) -> None:
        """Final memory sample; stops tracemalloc if this bundle
        started it.  Safe to call multiple times."""
        self.sample_memory()
        if self._owns_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._owns_tracemalloc = False

    @staticmethod
    def disabled() -> "_DisabledObservability":
        return DISABLED


class _DisabledObservability:
    """The no-op bundle: null tracer/registry/audit, nothing recorded."""

    enabled = False

    def __init__(self) -> None:
        self.tracer = NULL_TRACER
        self.metrics = NULL_REGISTRY
        self.audit = NULL_AUDIT
        self.profiler = None
        self.progress = NULL_PROGRESS

    def span(self, name: str, **attrs: object):
        return self.tracer.span(name)

    def sample_memory(self) -> None:
        pass

    def finish(self) -> None:
        pass

    @staticmethod
    def disabled() -> "_DisabledObservability":
        return DISABLED


DISABLED = _DisabledObservability()
