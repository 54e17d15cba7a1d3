"""Provenance audit: witness chains and grouping decisions.

The audit is duck-typed against TaintFlow/SecurityRule/FlowGroup, so
these tests drive it with minimal stand-ins; the integration test in
``test_pipeline_spans.py`` exercises it against the real pipeline.
"""

from repro.obs import ProvenanceAudit


class FakeFlow:
    def __init__(self, rule="XSS", source="doGet@1", sink="doGet@5",
                 length=3):
        self.rule = rule
        self.source = source
        self.sink = sink
        self.sink_display = "PrintWriter.println"
        self.length = length
        self.via_carrier = False
        self.heap_transitions = 1
        self.lcp = "doGet@3"

    def key(self):
        return (self.rule, self.source, self.sink)


class FakeRule:
    name = "XSS"
    sanitizers = frozenset({"encodeForHTML", "escapeXml"})
    sinks = ("println", "write")


class FakeGroupKey:
    remediation = "html-encode-output"
    lcp = "doGet@3"


class FakeGroup:
    def __init__(self, members):
        self.members = members
        self.size = len(members)
        self.representative = members[0]
        self.key = FakeGroupKey()


def test_witness_chain_fields():
    audit = ProvenanceAudit()
    flow = FakeFlow()
    audit.record_rule(FakeRule(), seeds=4, flows=1)
    audit.record_flow(flow, FakeRule(), seeds=4)
    payload = audit.to_payload()

    (rule,) = payload["rules_consulted"]
    assert rule == {"rule": "XSS", "seeds": 4,
                    "sanitizers": ["encodeForHTML", "escapeXml"],
                    "sinks": 2, "flows": 1}

    (witness,) = payload["flows"]
    assert witness["source"] == "doGet@1"
    assert witness["sink"] == "doGet@5"
    assert witness["path_length"] == 3
    assert witness["heap_transitions"] == 1
    assert witness["rule_seeds"] == 4
    assert witness["sanitizers_checked"] == ["encodeForHTML",
                                             "escapeXml"]
    # No reporting phase yet: grouping decision still unset.
    assert witness["grouping"]["grouped"] is False


def test_grouping_decision_marks_representative():
    audit = ProvenanceAudit()
    rep = FakeFlow(source="doGet@1")
    dup = FakeFlow(source="doGet@2")
    for flow in (rep, dup):
        audit.record_flow(flow, FakeRule(), seeds=2)
    audit.record_groups([FakeGroup([rep, dup])])

    by_source = {w["source"]: w for w in audit.to_payload()["flows"]}
    for witness in by_source.values():
        grouping = witness["grouping"]
        assert grouping["grouped"] is True
        assert grouping["group_size"] == 2
        assert grouping["remediation"] == "html-encode-output"
        assert grouping["group_lcp"] == "doGet@3"
    assert by_source["doGet@1"]["grouping"]["representative"] is True
    assert by_source["doGet@2"]["grouping"]["representative"] is False


def test_record_groups_tolerates_unseen_flows():
    audit = ProvenanceAudit()
    audit.record_groups([FakeGroup([FakeFlow()])])
    assert audit.to_payload()["flows"] == []
