"""Result objects returned by the TAJ facade."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..confirm.verdicts import ConfirmationResult
from ..reporting import Report
from ..resilience import COMPLETE, Degradation, Diagnostic
from ..taint.flows import TaintFlow


@dataclass
class PhaseTimes:
    """Wall-clock seconds per analysis phase.

    Derived from the ``phase.*`` tracer spans (one per pipeline phase),
    not from ad-hoc ``perf_counter`` call sites — see
    ``docs/observability.md``.
    """

    modeling: float = 0.0
    pointer_analysis: float = 0.0
    sdg: float = 0.0
    taint: float = 0.0
    reporting: float = 0.0
    confirm: float = 0.0

    @property
    def total(self) -> float:
        return (self.modeling + self.pointer_analysis + self.sdg +
                self.taint + self.reporting + self.confirm)


@dataclass
class TAJResult:
    """Everything one analysis run produced."""

    config_name: str
    report: Optional[Report] = None
    flows: List[TaintFlow] = field(default_factory=list)
    times: PhaseTimes = field(default_factory=PhaseTimes)
    cg_nodes: int = 0
    cg_edges: int = 0
    failed: bool = False          # hard budget failure (paper: CS OOM)
    failure: Optional[str] = None
    truncated: bool = False       # a soft bound trimmed the analysis
    # The metrics-registry snapshot for this run, its one record of
    # counters: counters (``modeling.*``, ``pointer.*``, ``taint.*``,
    # ...), gauges, and timer and value histograms with p50/p95/max
    # summaries (docs/observability.md).
    metrics: Dict[str, Dict] = field(default_factory=dict)
    # The flow-provenance audit payload (empty unless audit mode was
    # enabled): per-flow witness chains + per-rule consultations.
    provenance: Dict[str, object] = field(default_factory=dict)
    # Resilience record (repro.resilience, docs/robustness.md):
    # ``completeness`` summarizes whether these numbers came from a
    # complete run ("complete") or a degraded one ("partial-budget" /
    # "partial-deadline" / "partial-fault" / "failed"); each rung
    # descended is a Degradation, each absorbed failure a Diagnostic.
    completeness: str = COMPLETE
    degradations: List[Degradation] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)
    # Dynamic confirmation verdicts (repro.confirm): one per reported
    # flow, ``None`` unless the run was configured with ``confirm``.
    # Under a degraded ("partial-*") run only the surviving flows are
    # confirmed — a verdict never resurrects a dropped flow.
    confirmation: Optional[ConfirmationResult] = None
    # Sampling-profiler summary (repro.obs.profile): phase self-times,
    # hot-loop attribution, and top leaf functions; ``None`` unless the
    # run's bundle carried a profiler (``Observability(profile=...)`` /
    # CLI ``--profile``).
    profile: Optional[Dict[str, object]] = None

    def solver_stats(self) -> Dict[str, float]:
        """The pointer-solver kernel's counters and phase times: a
        view over :attr:`metrics` (every ``pointer.*`` counter, plus the
        solver sub-phase timer totals)."""
        prefix = "pointer."
        out: Dict[str, float] = {
            name[len(prefix):]: value
            for name, value in self.metrics.get("counters", {}).items()
            if name.startswith(prefix)}
        timers = self.metrics.get("timers", {})
        for phase in ("constraint_adding", "constraint_solving"):
            summary = timers.get(prefix + phase)
            if summary is not None:
                out[f"time_{phase}"] = summary["total"]
        return out

    @property
    def issues(self) -> int:
        """Reported issues (post-grouping), the Table 3 'Issues' column."""
        return self.report.count() if self.report else 0

    @property
    def raw_flows(self) -> int:
        return len(self.flows)

    def flows_by_rule(self) -> Dict[str, List[TaintFlow]]:
        out: Dict[str, List[TaintFlow]] = {}
        for flow in self.flows:
            out.setdefault(flow.rule, []).append(flow)
        return out
