"""User-facing reports: grouped issues with locations and remediation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir import Program
from ..obs import DISABLED, Observability
from ..taint.flows import TaintFlow, canonical_flows
from ..taint.rules import RuleSet
from .lcp import FlowGroup, group_flows


@dataclass
class Issue:
    """One reported issue: a flow-equivalence-class representative."""

    rule: str
    remediation: str
    source: str           # "Method@iid" location strings
    sink: str
    lcp: str
    sink_method: str
    source_line: int
    sink_line: int
    via_carrier: bool
    flow_length: int
    grouped_flows: int    # how many raw flows this issue represents


@dataclass
class Report:
    """The analysis report: grouped issues + raw flows."""

    issues: List[Issue] = field(default_factory=list)
    raw_flow_count: int = 0

    def count(self) -> int:
        return len(self.issues)

    def by_rule(self) -> Dict[str, List[Issue]]:
        out: Dict[str, List[Issue]] = {}
        for issue in self.issues:
            out.setdefault(issue.rule, []).append(issue)
        return out

    def to_dicts(self) -> List[Dict]:
        return [vars(issue) for issue in self.issues]


def _line_of(program: Optional[Program], ref) -> int:
    if program is None:
        return 0
    method = program.lookup_method(ref.method)
    if method is None:
        return 0
    for instr in method.instructions():
        if instr.iid == ref.iid:
            return instr.line
    return 0


def build_report(flows: List[TaintFlow], rules: RuleSet,
                 program: Optional[Program] = None,
                 obs: Optional[Observability] = None) -> Report:
    """Group raw flows (paper §5) and render them as issues.

    With an observability bundle, the §5 grouping decision of every
    member flow is recorded into the provenance audit, and the grouped/
    raw counts into the metrics registry.
    """
    obs = obs or DISABLED
    # Canonical order before grouping: representatives and issue order
    # must not depend on flow discovery order.
    flows = canonical_flows(flows)
    groups = group_flows(flows, rules)
    obs.audit.record_groups(groups)
    obs.metrics.inc("report.issues", len(groups))
    obs.metrics.inc("report.raw_flows", len(flows))
    obs.metrics.inc("report.flows_grouped_away", len(flows) - len(groups))
    report = Report(raw_flow_count=len(flows))
    for group in groups:
        rep = group.representative
        report.issues.append(Issue(
            rule=rep.rule,
            remediation=group.key.remediation,
            source=str(rep.source),
            sink=str(rep.sink),
            lcp=str(rep.lcp),
            sink_method=rep.sink_display,
            source_line=_line_of(program, rep.source),
            sink_line=_line_of(program, rep.sink),
            via_carrier=rep.via_carrier,
            flow_length=rep.length,
            grouped_flows=group.size,
        ))
    return report
