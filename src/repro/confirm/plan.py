"""Partial-instrumentation plans derived from flow witness chains.

arXiv 2411.19354 observes that to triage a *candidate* flow
dynamically, it suffices to instrument the methods on that flow's
path — everything else can run uninstrumented.  The static engine
already names those methods: every :class:`~repro.taint.flows.TaintFlow`
carries its source seed, its sink, and the library call point (LCP,
paper §5), each a ``Method@iid`` statement reference whose containing
method is on the witness chain.  A plan is the union of those methods
across all flows under confirmation: sources may only mint taint labels
inside ``source_methods``, sinks only record events inside
``sink_methods`` (see ``Interpreter`` partial instrumentation).

Plans are built from flows, not from the provenance payload, so the
oracle works on any ``TAJResult``; when provenance *is* enabled the
recorded witness chains describe exactly the same method set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple


@dataclass(frozen=True)
class FlowProbe:
    """One reported flow, reduced to what replay classification needs.

    All fields are plain strings/ints — probes are detached from the
    analysis program so they serialize and compare stably (verdict
    determinism across runs rides on this).
    """

    rule: str
    source: str               # "Method@iid" statement references
    sink: str
    sink_display: str         # e.g. "PrintWriter.println"
    lcp: str
    via_carrier: bool
    source_method: str        # containing-method qnames: the witness
    sink_method: str          # chain that gets instrumented
    lcp_method: str

    @staticmethod
    def from_flow(flow) -> "FlowProbe":
        """Build a probe from a :class:`~repro.taint.flows.TaintFlow`."""
        return FlowProbe(
            rule=flow.rule,
            source=str(flow.source),
            sink=str(flow.sink),
            sink_display=flow.sink_display,
            lcp=str(flow.lcp),
            via_carrier=flow.via_carrier,
            source_method=flow.source.method,
            sink_method=flow.sink.method,
            lcp_method=flow.lcp.method,
        )

    @property
    def witness_methods(self) -> FrozenSet[str]:
        return frozenset((self.source_method, self.sink_method,
                          self.lcp_method))

    def sort_key(self) -> Tuple:
        return (self.rule, self.source, self.sink, self.sink_display)


@dataclass(frozen=True)
class InstrumentationPlan:
    """The union instrumentation for one batch of probes."""

    probes: Tuple[FlowProbe, ...]
    source_methods: FrozenSet[str]
    sink_methods: FrozenSet[str]

    @property
    def instrumented_methods(self) -> FrozenSet[str]:
        return self.source_methods | self.sink_methods

    def __len__(self) -> int:
        return len(self.probes)


def build_plan(flows: Iterable) -> InstrumentationPlan:
    """Derive the partial-instrumentation plan for ``flows``.

    Probes are deduplicated by (rule, source, sink) and sorted into a
    canonical order — mirroring
    :func:`~repro.taint.flows.canonical_flows` so verdict lists come
    out identical regardless of how the flow list was produced.
    """
    seen = {}
    for flow in flows:
        probe = FlowProbe.from_flow(flow)
        key = (probe.rule, probe.source, probe.sink)
        if key not in seen:
            seen[key] = probe
    probes: List[FlowProbe] = sorted(seen.values(),
                                     key=FlowProbe.sort_key)
    sources = frozenset(p.source_method for p in probes)
    sinks = frozenset(p.sink_method for p in probes)
    return InstrumentationPlan(probes=tuple(probes),
                               source_methods=sources,
                               sink_methods=sinks)
