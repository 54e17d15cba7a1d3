"""TAJ facade tests."""

import pytest

from repro import TAJ, TAJConfig, analyze, default_rules, extended_rules
from repro.modeling import prepare

APP = """
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("p"));
    resp.sendRedirect(req.getParameter("next"));
  }
}
"""


def test_analyze_convenience_wrapper():
    result = analyze([APP])
    assert result.issues == 1


def test_default_config_is_optimized():
    assert TAJ().config.name == "hybrid-optimized"


def test_rules_are_injectable():
    base = TAJ(TAJConfig.hybrid_unbounded()).analyze_sources([APP])
    extended = TAJ(TAJConfig.hybrid_unbounded(),
                   rules=extended_rules()).analyze_sources([APP])
    assert base.issues == 1
    assert extended.issues == 2
    assert {i.rule for i in extended.report.issues} == \
        {"XSS", "OPEN_REDIRECT"}


def test_prepared_program_shared_across_configs():
    prepared = prepare([APP])
    a = TAJ(TAJConfig.hybrid_unbounded()).analyze_prepared(prepared)
    b = TAJ(TAJConfig.ci()).analyze_prepared(prepared)
    assert a.issues == b.issues == 1
    assert a.config_name != b.config_name


def test_result_carries_metrics_and_times():
    result = analyze([APP])
    assert result.cg_nodes > 0
    assert result.cg_edges > 0
    assert "modeling.entrypoint_roots" in result.metrics["counters"]
    assert result.times.total > 0


def test_extra_entrypoints():
    library_only = """
class Plain {
  void handle(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("p"));
  }
}
class Driver {
  static void drive() {
    Plain p = new Plain();
    HttpServletRequest req = new HttpServletRequest();
    HttpServletResponse resp = new HttpServletResponse();
    p.handle(req, resp);
  }
}
"""
    result = TAJ(TAJConfig.hybrid_unbounded()).analyze_sources(
        [library_only], extra_entrypoints=["Driver.drive/0"])
    assert result.issues == 1


def test_no_entrypoints_means_no_findings():
    result = TAJ(TAJConfig.hybrid_unbounded()).analyze_sources(["""
class Orphan {
  void never(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("p"));
  }
}
"""])
    assert result.issues == 0


def test_flows_and_report_consistent():
    result = analyze([APP])
    assert result.raw_flows >= result.issues
    assert result.report.raw_flow_count == result.raw_flows
    by_rule = result.flows_by_rule()
    assert sum(len(v) for v in by_rule.values()) == result.raw_flows
