"""``repro.obs`` — zero-dependency observability for the TAJ pipeline.

Four instruments behind one bundle (:class:`Observability`):

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
* :class:`~repro.obs.profile.SamplingProfiler` — phase-attributed
  stack sampling, opt-in via ``Observability(profile=...)``; the
  facade runs it for the length of each ``analyze_*`` call.

Every run records into a real bundle: a component built without one
makes a fresh ``Observability()``.  The audit, memory sampling
(``tracemalloc`` itself is costly) and the sampling profiler are
opt-in; the audit and the profiler are ``None`` when off.

Naming conventions and exporter formats: ``docs/observability.md``.
"""

from __future__ import annotations

import tracemalloc
from typing import Optional, Union

from .export import (chrome_trace_events, span_dicts, write_audit_json,
                     write_chrome_trace, write_metrics_json,
                     write_spans_jsonl)
from .ledger import (LedgerError, append_record, comparable_records,
                     config_fingerprint, corpus_hash, host_fingerprint,
                     read_ledger, record_from_result)
from .metrics import Histogram, MetricsRegistry, percentile
from .profile import ProfileData, SamplingProfiler, write_collapsed
from .provenance import FlowWitness, ProvenanceAudit, RuleConsultation
from .tracer import Span, Tracer

__all__ = [
    "FlowWitness", "Histogram", "LedgerError", "MetricsRegistry",
    "Observability", "ProfileData", "ProvenanceAudit",
    "RuleConsultation", "SamplingProfiler", "Span", "Tracer",
    "append_record",
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
    memory sampling and the sampling profiler are opt-in::

        obs = Observability(audit=True, memory=True, profile=True)
        result = TAJ(config, obs=obs).analyze_sources([source])
        write_chrome_trace(obs.tracer, "trace.json")
        write_collapsed(obs.profiler.data, "profile.collapsed")
    """

    def __init__(self,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 audit: Union[bool, ProvenanceAudit] = False,
                 memory: bool = False,
                 profile: Union[bool, SamplingProfiler] = False) -> None:
        self.tracer = Tracer() if tracer is None else tracer
        self.metrics = MetricsRegistry() if metrics is None else metrics
        if audit is True:
            audit = ProvenanceAudit()
        self.audit: Optional[ProvenanceAudit] = audit or None
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
