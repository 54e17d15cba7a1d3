"""Security rules: (sources, sanitizers, sinks) triples (paper §3).

A *source* is a method whose return value is tainted (or, per the
paper's footnote on ``RandomAccessFile.readFully``, a method that taints
the internal state of a by-reference parameter).  A *sanitizer* endorses
its input.  A *sink* is a method with taint-vulnerable parameters.  Each
rule carries an issue type and a remediation action — the latter drives
the LCP-based grouping of §5 (flows are equivalent only if they require
the same remediation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir import Call, StringOp


@dataclass(frozen=True)
class MethodSpec:
    """Identifies library methods by ``Class.name`` display name."""

    display: str

    @property
    def class_name(self) -> str:
        return self.display.rsplit(".", 1)[0]

    @property
    def method_name(self) -> str:
        return self.display.rsplit(".", 1)[-1]


@dataclass
class SecurityRule:
    """One vulnerability class: its sources, sanitizers, and sinks."""

    name: str                      # e.g. "XSS"
    sources: Set[str] = field(default_factory=set)
    sanitizers: Set[str] = field(default_factory=set)
    # sink display name -> vulnerable parameter indices (None = all).
    sinks: Dict[str, Optional[Tuple[int, ...]]] = field(default_factory=dict)
    # display name -> by-reference-tainted parameter indices (footnote 2).
    ref_sources: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    remediation: str = ""          # remediation action label (for §5)

    def _match(self, call: Call, names: Iterable[str],
               resolved: Optional[str]) -> Optional[str]:
        if resolved is not None and resolved in names:
            return resolved
        syntactic = call.target_id()
        if syntactic in names:
            return syntactic
        if not call.class_name:
            # Unresolved virtual call: match on the bare method name.
            for display in names:
                if display.rsplit(".", 1)[-1] == call.method_name:
                    return display
        return None

    def source_match(self, call: Call,
                     resolved: Optional[str] = None) -> Optional[str]:
        return self._match(call, self.sources, resolved)

    def sink_match(self, call: Call,
                   resolved: Optional[str] = None) -> Optional[str]:
        return self._match(call, self.sinks, resolved)

    def sanitizer_match_call(self, call: Call,
                             resolved: Optional[str] = None) -> Optional[str]:
        return self._match(call, self.sanitizers, resolved)

    def sanitizer_match_strop(self, strop: StringOp) -> Optional[str]:
        return strop.method if strop.method in self.sanitizers else None

    def ref_source_match(self, call: Call,
                         resolved: Optional[str] = None) -> Optional[str]:
        return self._match(call, self.ref_sources, resolved)

    def sink_params(self, display: str) -> Optional[Tuple[int, ...]]:
        return self.sinks.get(display)


class RuleSet:
    """A collection of security rules plus convenience indexes."""

    def __init__(self, rules: Iterable[SecurityRule]) -> None:
        self.rules: List[SecurityRule] = list(rules)

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def by_name(self, name: str) -> SecurityRule:
        for rule in self.rules:
            if rule.name == name:
                return rule
        raise KeyError(name)

    def all_source_methods(self) -> Set[str]:
        out: Set[str] = set()
        for rule in self.rules:
            out |= rule.sources
            out |= set(rule.ref_sources)
        return out

    def all_sink_methods(self) -> Set[str]:
        out: Set[str] = set()
        for rule in self.rules:
            out |= set(rule.sinks)
        return out

    def all_sanitizer_methods(self) -> Set[str]:
        out: Set[str] = set()
        for rule in self.rules:
            out |= rule.sanitizers
        return out

    def taint_api_methods(self) -> Set[str]:
        """Everything deserving 1-call-string context (paper §3.1)."""
        return (self.all_source_methods() | self.all_sink_methods() |
                self.all_sanitizer_methods())


# -- default rules for the modeled library -----------------------------------

_REQUEST_SOURCES = {
    "HttpServletRequest.getParameter",
    "HttpServletRequest.getHeader",
    "HttpServletRequest.getQueryString",
    "HttpServletRequest.getRequestURI",
    "Cookie.getValue",
    "BufferedReader.readLine",
    "ActionForm.taintAll",      # synthesized Struts form population
    "TaintSupport.source",      # generic source used by synthetic models
}

_RENDER_SINKS: Dict[str, Optional[Tuple[int, ...]]] = {
    "PrintWriter.println": (0,),
    "PrintWriter.print": (0,),
    "PrintWriter.write": (0,),
    "JspWriter.print": (0,),
    "JspWriter.println": (0,),
}


def default_rules() -> RuleSet:
    """The rule set covering the paper's four attack vectors (§1)."""
    xss = SecurityRule(
        name="XSS",
        sources=set(_REQUEST_SOURCES),
        sanitizers={
            "URLEncoder.encode",
            "Encoder.encodeForHTML",
            "StringEscapeUtils.escapeHtml",
        },
        sinks=dict(_RENDER_SINKS),
        ref_sources={"RandomAccessFile.readFully": (0,)},
        remediation="html-encode-output",
    )
    sqli = SecurityRule(
        name="SQLI",
        sources=set(_REQUEST_SOURCES),
        sanitizers={
            "StringEscapeUtils.escapeSql",
            "Codec.encodeForSQL",
        },
        sinks={
            "Statement.executeQuery": (0,),
            "Statement.executeUpdate": (0,),
            "Statement.execute": (0,),
            "Connection.prepareStatement": (0,),
        },
        remediation="parameterize-query",
    )
    mfe = SecurityRule(
        name="MALICIOUS_FILE",
        sources=set(_REQUEST_SOURCES),
        sanitizers={
            "FilenameUtils.normalize",
            "PathValidator.validate",
        },
        sinks={
            "File.<init>": (0,),
            "FileReader.<init>": (0,),
            "FileWriter.<init>": (0,),
            "FileInputStream.<init>": (0,),
            "Runtime.exec": (0,),
        },
        remediation="validate-file-path",
    )
    leak = SecurityRule(
        name="INFO_LEAK",
        sources={
            "Exception.getMessage",
            "Exception.toString",
            "System.getProperty",
        },
        sanitizers={"MessageSanitizer.scrub"},
        sinks=dict(_RENDER_SINKS),
        remediation="scrub-error-message",
    )
    return RuleSet([xss, sqli, mfe, leak])


def extended_rules() -> RuleSet:
    """The default rules plus the coverage extensions the paper lists as
    future work (§9: "we plan to extend our coverage of security
    rules"): open redirects and HTTP response splitting."""
    base = default_rules()
    redirect = SecurityRule(
        name="OPEN_REDIRECT",
        sources=set(_REQUEST_SOURCES),
        sanitizers={"URLValidator.validate"},
        sinks={"HttpServletResponse.sendRedirect": (0,)},
        remediation="validate-redirect-target",
    )
    splitting = SecurityRule(
        name="RESPONSE_SPLITTING",
        sources=set(_REQUEST_SOURCES),
        sanitizers={"HeaderSanitizer.strip"},
        sinks={"HttpServletResponse.addHeader": (1,)},
        remediation="strip-crlf-from-header",
    )
    return RuleSet(list(base.rules) + [redirect, splitting])
