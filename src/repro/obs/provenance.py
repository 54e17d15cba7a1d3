"""Flow-provenance audit: the witness chain behind every reported flow.

When precision shifts between two runs — an issue appears, disappears,
or regroups — the report alone says nothing about *why*.  The audit
records, per :class:`~repro.taint.flows.TaintFlow`, everything the
pipeline consulted on the way to reporting it:

* the **source seed** (the source call statement that started the
  slice) and how many seeds the rule enumerated in total;
* the **SDG path length** (traversed-edge count, the §6.2.2 metric)
  plus the carrier/heap-transition character of the witness path;
* the **rule consulted** and the **sanitizers checked** against the
  path (a flow is only reported if none endorsed it);
* the **grouping decision** of §5: which LCP equivalence class the flow
  fell into, the class size, the remediation label, and whether this
  flow is the class representative that becomes the reported issue.

The audit is duck-typed against :class:`TaintFlow`/``FlowGroup`` (no
imports from the analysis packages, keeping ``repro.obs`` a leaf).
The audit is opt-in: a bundle built without ``audit=True`` has none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass
class FlowWitness:
    """The recorded provenance of one deduplicated flow."""

    rule: str
    source: str                 # the source seed, "Method@iid"
    sink: str
    sink_display: str
    path_length: int
    via_carrier: bool
    heap_transitions: int
    lcp: str
    rule_seeds: int             # source seeds the rule enumerated
    sanitizers_checked: Tuple[str, ...]
    # grouping decision (filled by the reporting phase)
    grouped: bool = False
    group_size: int = 0
    representative: bool = False
    remediation: str = ""
    group_lcp: str = ""

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "source": self.source,
            "sink": self.sink,
            "sink_display": self.sink_display,
            "path_length": self.path_length,
            "via_carrier": self.via_carrier,
            "heap_transitions": self.heap_transitions,
            "lcp": self.lcp,
            "rule_seeds": self.rule_seeds,
            "sanitizers_checked": list(self.sanitizers_checked),
            "grouping": {
                "grouped": self.grouped,
                "group_size": self.group_size,
                "representative": self.representative,
                "remediation": self.remediation,
                "group_lcp": self.group_lcp,
            },
        }


@dataclass
class RuleConsultation:
    """What applying one security rule involved."""

    rule: str
    seeds: int                  # enumerated source statements
    sanitizers: Tuple[str, ...]
    sinks: int
    flows: int = 0              # deduplicated flows the rule yielded

    def to_dict(self) -> Dict:
        return {"rule": self.rule, "seeds": self.seeds,
                "sanitizers": list(self.sanitizers), "sinks": self.sinks,
                "flows": self.flows}


class ProvenanceAudit:
    """Collects witnesses during the taint + reporting phases."""

    def __init__(self) -> None:
        self.rules: List[RuleConsultation] = []
        self.witnesses: List[FlowWitness] = []
        self._by_key: Dict[Tuple, FlowWitness] = {}

    # -- taint phase -------------------------------------------------------

    def record_rule(self, rule, seeds: int, flows: int) -> None:
        """One security rule was applied (``rule`` is a SecurityRule)."""
        self.rules.append(RuleConsultation(
            rule=rule.name, seeds=seeds,
            sanitizers=tuple(sorted(rule.sanitizers)),
            sinks=len(rule.sinks), flows=flows))

    def record_flow(self, flow, rule, seeds: int) -> FlowWitness:
        """One deduplicated flow survived slicing under ``rule``."""
        witness = FlowWitness(
            rule=flow.rule, source=str(flow.source), sink=str(flow.sink),
            sink_display=flow.sink_display, path_length=flow.length,
            via_carrier=flow.via_carrier,
            heap_transitions=flow.heap_transitions, lcp=str(flow.lcp),
            rule_seeds=seeds,
            sanitizers_checked=tuple(sorted(rule.sanitizers)))
        self._by_key[flow.key()] = witness
        self.witnesses.append(witness)
        return witness

    # -- reporting phase ---------------------------------------------------

    def record_groups(self, groups) -> None:
        """Attach the §5 grouping decision to each member's witness
        (``groups`` is the FlowGroup list from report building)."""
        for group in groups:
            for member in group.members:
                witness = self._by_key.get(member.key())
                if witness is None:
                    continue
                witness.grouped = True
                witness.group_size = group.size
                witness.representative = member is group.representative
                witness.remediation = group.key.remediation
                witness.group_lcp = str(group.key.lcp)

    # -- output ------------------------------------------------------------

    def to_payload(self) -> Dict:
        """The full audit as a JSON-serializable dict."""
        return {
            "rules_consulted": [r.to_dict() for r in self.rules],
            "flows": [w.to_dict() for w in self.witnesses],
        }
