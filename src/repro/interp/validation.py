"""Dynamic validation of static findings and benchmark ground truth.

Runs a program concretely (normal mode + fault-injection mode for catch
blocks) and summarizes which (sink-method, rule) pairs received tainted
data at run time.  Used to confirm that

* every planted true positive in a generated benchmark is dynamically
  realizable, and
* sanitized plants never produce a tainted sink event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..ir import Program
from ..modeling import ModelOptions, prepare
from ..taint.rules import RuleSet, default_rules
from .interpreter import execute

# Which dynamic label kinds can witness which rule.
LABEL_KINDS = {
    "XSS": {"src"},
    "SQLI": {"src"},
    "MALICIOUS_FILE": {"src"},
    "OPEN_REDIRECT": {"src"},
    "RESPONSE_SPLITTING": {"src"},
    "INFO_LEAK": {"exc", "sys"},
}


@dataclass(frozen=True)
class ParsedLabel:
    """A decoded dynamic taint label.

    Labels are ``<kind>:<Method>@<iid>`` with zero or more
    ``|san=<Sanitizer.display>`` annotations appended by sanitizer
    builtins (see :meth:`repro.interp.values.JString.with_sanitizer`).
    """

    kind: str                  # "src" | "exc" | "sys"
    origin_method: str         # qname of the method holding the source
    origin_iid: int
    sanitizers: FrozenSet[str]

    def witnesses(self, rule_name: str,
                  rule_sanitizers: FrozenSet[str]) -> bool:
        """Can this label witness ``rule_name``?  True when the label
        kind matches the rule and none of the rule's sanitizers were
        applied to the value on its way to the sink."""
        if self.kind not in LABEL_KINDS.get(rule_name, {"src"}):
            return False
        return not (self.sanitizers & rule_sanitizers)


def parse_label(label: str) -> ParsedLabel:
    """Decode one dynamic taint label into its structured form."""
    base, *annotations = label.split("|")
    kind, _, origin = base.partition(":")
    method, _, iid_text = origin.rpartition("@")
    try:
        iid = int(iid_text)
    except ValueError:
        method, iid = origin, -1
    applied = frozenset(part[len("san="):] for part in annotations
                        if part.startswith("san="))
    return ParsedLabel(kind=kind, origin_method=method, origin_iid=iid,
                       sanitizers=applied)


def execution_options() -> ModelOptions:
    """Model options for concrete execution: only entrypoint synthesis.

    The analysis-oriented rewrites (string carriers, constant-key
    dictionaries, reflection resolution, EJB artifacts, synthetic
    exception sources) are disabled so the interpreter runs the real
    (model-library) code; their behaviours are implemented natively by
    the interpreter instead.
    """
    return ModelOptions(frameworks=True, exceptions=False, strings=False,
                        reflection=False, collections=False, ejb=False)


def prepare_for_execution(sources: List[str],
                          deployment_descriptor: Optional[Dict[str, str]]
                          = None) -> Program:
    prepared = prepare(sources, deployment_descriptor,
                       options=execution_options())
    return prepared.program


@dataclass
class DynamicWitness:
    """Tainted sink activity observed for one (method, display) pair."""

    sink_method: str
    display: str
    labels: FrozenSet[str]


@dataclass
class DynamicSummary:
    """All tainted sink activity from normal + fault-injection runs."""

    witnesses: List[DynamicWitness] = field(default_factory=list)
    aborted: List[str] = field(default_factory=list)

    def confirms(self, rule_name: str, sink_method: str,
                 rules: Optional[RuleSet] = None) -> bool:
        """Did the sink method receive data tainted with a label kind
        that can witness this rule, through one of the rule's sinks?"""
        rules = rules or default_rules()
        try:
            rule = rules.by_name(rule_name)
        except KeyError:
            return False
        sanitizers = frozenset(rule.sanitizers)
        return any(parse_label(label).witnesses(rule_name, sanitizers)
                   for witness in self.witnesses
                   if witness.sink_method == sink_method
                   and witness.display in rule.sinks
                   for label in witness.labels)


def run_dynamic(sources: List[str],
                deployment_descriptor: Optional[Dict[str, str]] = None,
                fuel: int = 200_000) -> DynamicSummary:
    """Execute a program in both modes and summarize tainted sinks."""
    program = prepare_for_execution(sources, deployment_descriptor)
    summary = DynamicSummary()
    seen: Set[Tuple[str, str, FrozenSet[str]]] = set()
    for fault in (False, True):
        result = execute(program, fuel=fuel, fault_injection=fault)
        summary.aborted.extend(result.aborted_entrypoints)
        for event in result.tainted_events():
            token = (event.method, event.display, event.all_taint)
            if token in seen:
                continue
            seen.add(token)
            summary.witnesses.append(DynamicWitness(
                event.method, event.display, event.all_taint))
    return summary
