"""Library-call-point (LCP) based report minimization (paper §5).

An LCP is the last statement along a flow where data crosses from
application code into library code.  Two flows are equivalent (``U ~ V``)
iff they share the source→LCP prefix *and* require the same remediation
action; TAJ reports one representative per equivalence class, so fixing
the representative (inserting a sanitizer at/before the LCP) fixes every
member.

The slicing strategies already annotate each flow with its last
application→library crossing, so grouping is a key computation here:

* group key — (source, LCP, remediation action);
* representative — the shortest member flow;
* the remediation action comes from the flow's security rule, matching
  the paper's observation (Figure 3) that sinks with the same issue type
  need the same sanitation logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..sdg.nodes import StmtRef
from ..taint.flows import TaintFlow
from ..taint.rules import RuleSet


@dataclass(frozen=True)
class GroupKey:
    """Identity of a ~-equivalence class."""

    source: StmtRef
    lcp: StmtRef
    remediation: str


@dataclass
class FlowGroup:
    """One equivalence class of flows."""

    key: GroupKey
    representative: TaintFlow
    members: List[TaintFlow] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def rule(self) -> str:
        return self.representative.rule


def remediation_of(rules: RuleSet, flow: TaintFlow) -> str:
    try:
        return rules.by_name(flow.rule).remediation or flow.rule
    except KeyError:
        return flow.rule


def group_flows(flows: List[TaintFlow], rules: RuleSet) -> List[FlowGroup]:
    """Partition flows into ~-classes; one representative each."""
    groups: Dict[GroupKey, FlowGroup] = {}
    for flow in flows:
        key = GroupKey(flow.source, flow.lcp, remediation_of(rules, flow))
        group = groups.get(key)
        if group is None:
            groups[key] = FlowGroup(key, flow, [flow])
        else:
            group.members.append(flow)
            if flow.length < group.representative.length:
                group.representative = flow
    return sorted(groups.values(),
                  key=lambda g: (g.rule, str(g.key.source), str(g.key.lcp)))
