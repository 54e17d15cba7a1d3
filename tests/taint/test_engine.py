"""Taint-engine orchestration tests."""

import pytest

from repro.bounds import Budget
from repro.modeling import prepare, default_natives, COLLECTION_CLASSES, \
    FACTORY_METHODS
from repro.pointer import ContextPolicy, PointerAnalysis, PolicyConfig
from repro.pointer.heapgraph import HeapGraph
from repro.sdg.hsdg import DirectEdges
from repro.sdg.noheap import NoHeapSDG
from repro.taint import TaintEngine, default_rules, make_slicer
from repro.taint.rules import RuleSet
from repro.slicing import CISlicer, CSSlicer, HybridSlicer

APP = """
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("p"));
    Connection c = DriverManager.getConnection("db");
    c.createStatement().executeQuery("q" + req.getParameter("u"));
  }
}
"""


@pytest.fixture(scope="module")
def pieces():
    prepared = prepare([APP])
    config = PolicyConfig(collection_classes=set(COLLECTION_CLASSES),
                          factory_methods=set(FACTORY_METHODS))
    analysis = PointerAnalysis(prepared.program, ContextPolicy(config),
                               natives=default_natives())
    analysis.solve()
    sdg = NoHeapSDG(prepared.program, analysis.call_graph)
    return sdg, DirectEdges(sdg, analysis), HeapGraph(analysis)


def test_engine_runs_all_rules(pieces):
    sdg, direct, heap = pieces
    engine = TaintEngine(sdg, direct, heap, default_rules(), Budget())
    result = engine.run()
    rules = {f.rule for f in result.flows}
    assert rules == {"XSS", "SQLI"}
    assert not result.failed
    # Single timing source: the engine keeps no clock of its own — the
    # taint phase duration comes from the phase.taint tracer span.
    assert not hasattr(result, "seconds")
    assert result.completed_rules == [r.name for r in default_rules()]
    assert result.final_strategy == "hybrid"


def test_make_slicer_dispatch(pieces):
    sdg, direct, heap = pieces
    assert isinstance(make_slicer("hybrid", sdg, direct, heap, Budget()),
                      HybridSlicer)
    assert isinstance(make_slicer("ci", sdg, direct, heap, Budget()),
                      CISlicer)
    assert isinstance(make_slicer("cs", sdg, direct, heap, Budget()),
                      CSSlicer)
    with pytest.raises(ValueError):
        make_slicer("nope", sdg, direct, heap, Budget())


def test_cs_budget_failure_reports_cleanly(pieces):
    sdg, direct, heap = pieces
    engine = TaintEngine(sdg, direct, heap, default_rules(),
                         Budget(max_state_units=1), strategy="cs")
    result = engine.run()
    # The plain no-heap SDG has no modref; the meter still charges per
    # fact, so the tiny budget fails the run.
    assert result.failed
    assert result.flows == []


def test_state_units_recorded(pieces):
    sdg, direct, heap = pieces
    engine = TaintEngine(sdg, direct, heap, default_rules(), Budget())
    result = engine.run()
    assert result.state_units > 0


def _state_budget_that_fails_rule_two(sdg, direct, heap):
    """A max_state_units value that lets the first rule complete but
    exhausts while slicing the second (found empirically per-run so the
    regression test stays robust to slicer changes)."""
    rules = list(default_rules())
    baseline = TaintEngine(sdg, direct, heap, default_rules(),
                           Budget()).run()
    per_rule = {}
    for rule in rules:
        res = TaintEngine(sdg, direct, heap, RuleSet([rule]),
                          Budget()).run()
        per_rule[rule.name] = res.state_units
    first = rules[0].name
    # Enough for rule 1, not enough for rules 1+2 together.
    budget = per_rule[first] + 1
    assert budget < baseline.state_units
    return budget


def test_budget_abort_preserves_completed_rule_flows(pieces):
    """Regression: a mid-sweep BudgetExhausted used to wipe the whole
    flow list (`result.flows = []`); flows from rules that completed
    before the trip must survive."""
    sdg, direct, heap = pieces
    budget = _state_budget_that_fails_rule_two(sdg, direct, heap)
    engine = TaintEngine(sdg, direct, heap, default_rules(),
                         Budget(max_state_units=budget))
    result = engine.run()
    assert result.failed
    assert result.completed_rules, "rule 1 completed before the trip"
    kept = {f.rule for f in result.flows}
    assert set(result.completed_rules) == kept
    assert result.flows, "completed-rule flows must be preserved"


def test_sweep_times_and_traces_each_rule_once(pieces):
    from repro.obs import Observability
    sdg, direct, heap = pieces
    obs = Observability()
    result = TaintEngine(sdg, direct, heap, default_rules(), Budget(),
                         obs=obs).run()
    assert result.flows
    rule_count = len(list(default_rules()))
    assert obs.metrics.timer_summary(
        "taint.rule_seconds")["count"] == rule_count
    spans = obs.tracer.find("taint.rule")
    assert {s.attrs["rule"] for s in spans} == \
        {r.name for r in default_rules()}
    assert len(spans) == rule_count
