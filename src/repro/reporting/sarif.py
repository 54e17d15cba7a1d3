"""SARIF 2.1.0 export — the interchange format downstream security
tooling (code scanners, IDE plugins, GitHub code scanning) consumes.

The mapping is straightforward: each security rule becomes a SARIF
reporting rule; each grouped issue becomes a result whose location is
the sink statement, with the source and the LCP (the remediation point,
paper §5) attached as related locations.  A run that ended before
reporting (deadline, failure) has no report and yields zero results;
its ``completeness`` verdict rides in ``invocations[0]`` so an empty
log from a cut-short run does not read as a clean one.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..taint.rules import RuleSet
from .report import Issue, Report

SARIF_VERSION = "2.1.0"
_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
           "master/Schemata/sarif-schema-2.1.0.json")


def _location(label: str, where: str, line: int) -> Dict:
    method = where.split("@")[0]
    loc: Dict = {
        "message": {"text": f"{label} in {method}"},
        "physicalLocation": {
            "artifactLocation": {"uri": "jlang-sources"},
        },
        "logicalLocations": [{
            "fullyQualifiedName": where,
            "kind": "function",
        }],
    }
    if line:
        loc["physicalLocation"]["region"] = {"startLine": line}
    return loc


def _result(issue: Issue) -> Dict:
    kind = " via taint carrier" if issue.via_carrier else ""
    message = (f"Tainted data reaches {issue.sink_method}{kind}; "
               f"remediation: {issue.remediation} at {issue.lcp}.")
    return {
        "ruleId": issue.rule,
        "level": "error",
        "message": {"text": message},
        "locations": [_location("sink", issue.sink, issue.sink_line)],
        "relatedLocations": [
            _location("source", issue.source, issue.source_line),
            _location("remediation point (LCP)", issue.lcp, 0),
        ],
        "properties": {
            "flowLength": issue.flow_length,
            "groupedFlows": issue.grouped_flows,
            "viaCarrier": issue.via_carrier,
        },
    }


def to_sarif(report: Optional[Report], rules: Optional[RuleSet] = None,
             tool_version: str = "1.0.0",
             completeness: Optional[str] = None) -> Dict:
    """Convert a report (``None``: the run ended before reporting) to a
    SARIF log dictionary, recording ``completeness`` when given."""
    issues = report.issues if report is not None else []
    rule_descriptors: List[Dict] = []
    seen = set()
    candidates = list(rules) if rules is not None else []
    reported = {issue.rule for issue in issues}
    for rule in candidates:
        if rule.name in seen:
            continue
        seen.add(rule.name)
        rule_descriptors.append({
            "id": rule.name,
            "shortDescription": {"text": f"Tainted flow ({rule.name})"},
            "help": {"text": f"Remediation: {rule.remediation}"},
        })
    for name in sorted(reported - seen):
        rule_descriptors.append({
            "id": name,
            "shortDescription": {"text": f"Tainted flow ({name})"},
        })
    run: Dict = {
        "tool": {
            "driver": {
                "name": "repro-taj",
                "informationUri":
                    "https://doi.org/10.1145/1542476.1542486",
                "version": tool_version,
                "rules": rule_descriptors,
            },
        },
        "results": [_result(issue) for issue in issues],
    }
    if completeness is not None:
        run["invocations"] = [{
            "executionSuccessful": completeness == "complete",
            "properties": {"completeness": completeness},
        }]
    return {"$schema": _SCHEMA, "version": SARIF_VERSION, "runs": [run]}


def render_sarif(report: Optional[Report],
                 rules: Optional[RuleSet] = None, indent: int = 2,
                 completeness: Optional[str] = None) -> str:
    """The SARIF log as a JSON string."""
    return json.dumps(to_sarif(report, rules, completeness=completeness),
                      indent=indent)
