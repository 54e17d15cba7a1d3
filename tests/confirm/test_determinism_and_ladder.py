"""Confirmation: determinism and composition with the degradation
ladder.

The verdict list must be byte-identical across repeated runs (the
replay is downstream of the canonical flow order), and a degraded
``partial-*`` run must confirm only the flows that survived the
ladder — never resurrect dropped ones.
"""

import json

from repro.core import TAJ, TAJConfig
from repro.resilience import Fault, FaultPlan

APP = """
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("p"));
    Connection c = DriverManager.getConnection("db");
    c.createStatement().executeQuery("q" + req.getParameter("u"));
    try {
      c.createStatement().executeUpdate("UPDATE t SET c = 1");
    } catch (SQLException e) {
      resp.getWriter().println(e);
    }
  }
}
"""


def verdict_bytes(result):
    assert result.confirmation is not None
    return json.dumps([v.to_dict()
                       for v in result.confirmation.verdicts],
                      sort_keys=True)


def test_verdicts_identical_across_repeated_runs():
    config = TAJConfig.cs().with_confirm()
    first = TAJ(config).analyze_sources([APP])
    second = TAJ(config).analyze_sources([APP])
    assert verdict_bytes(first) == verdict_bytes(second)


def test_partial_run_confirms_only_surviving_flows():
    """A CS run that trips its state budget degrades to hybrid; the
    confirmation pass covers exactly the surviving flow set."""
    config = TAJConfig.cs(max_state_units=5).with_resilience(
        resilient=True).with_confirm()
    result = TAJ(config).analyze_sources([APP])
    assert result.completeness == "partial-budget"
    assert result.flows
    conf = result.confirmation
    assert conf is not None
    flow_keys = {(f.rule, str(f.source), str(f.sink))
                 for f in result.flows}
    verdict_keys = {(v.rule, v.source, v.sink) for v in conf.verdicts}
    assert verdict_keys == flow_keys


def test_mid_sweep_fault_confirms_remaining_rules():
    """Rule 2 of the sweep dies (injected); confirmation still covers
    the surviving rules' flows and no phantom verdicts appear."""
    config = TAJConfig.hybrid_optimized().with_resilience(
        deadline_seconds=3600.0, resilient=True).with_confirm()
    fault = Fault("slicing.hybrid", at=1, exception="budget")
    result = TAJ(config, faults=FaultPlan.of(fault)).analyze_sources(
        [APP])
    assert result.completeness == "partial-budget"
    conf = result.confirmation
    assert conf is not None
    assert {(v.rule, v.source, v.sink) for v in conf.verdicts} == \
        {(f.rule, str(f.source), str(f.sink)) for f in result.flows}


def test_confirm_fault_degrades_without_killing_report():
    """A fault injected inside the confirm seam leaves the static
    report intact and records a confirm degradation."""
    config = TAJConfig.hybrid_unbounded().with_resilience(
        resilient=True).with_confirm()
    fault = Fault("confirm.replay", action="raise")
    result = TAJ(config, faults=FaultPlan.of(fault)).analyze_sources(
        [APP])
    assert result.flows and result.report is not None
    assert result.confirmation is None
    assert any(d.phase == "confirm" for d in result.degradations)
    assert result.completeness == "partial-fault"
