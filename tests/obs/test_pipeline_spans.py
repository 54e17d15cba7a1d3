"""Integration: the full pipeline under observability.

Asserts the tentpole contract — every pipeline phase emits exactly one
top-level ``phase.*`` span, phase times derive from those spans, the
registry snapshot carries the solver counters, and a run given no
bundle still records into a private one.
"""

import pytest

from repro import TAJ, TAJConfig
from repro.lang import tokenize
from repro.obs import Observability

APP = """
class Hello extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    String name = req.getParameter("name");
    resp.getWriter().println(name);
  }
}
"""

PHASES = ["phase.modeling", "phase.pointer_analysis", "phase.sdg",
          "phase.taint", "phase.reporting"]


@pytest.fixture(scope="module")
def traced_run():
    obs = Observability(audit=True, memory=True)
    result = TAJ(TAJConfig.hybrid_optimized(),
                 obs=obs).analyze_sources([APP])
    return obs, result


def test_every_phase_emits_exactly_one_top_level_span(traced_run):
    obs, _ = traced_run
    assert [root.name for root in obs.tracer.roots] == PHASES
    for root in obs.tracer.roots:
        assert root.end is not None


def test_phase_times_derive_from_spans(traced_run):
    obs, result = traced_run
    durations = obs.tracer.phase_durations()
    times = result.times
    assert times.modeling == pytest.approx(durations["modeling"])
    assert times.pointer_analysis == pytest.approx(
        durations["pointer_analysis"])
    assert times.sdg == pytest.approx(durations["sdg"])
    assert times.taint == pytest.approx(durations["taint"])
    assert times.reporting == pytest.approx(durations["reporting"])
    assert times.total == pytest.approx(sum(durations.values()))


def test_solver_subphases_nest_under_pointer_analysis(traced_run):
    obs, _ = traced_run
    (pointer,) = obs.tracer.find("phase.pointer_analysis")
    children = {c.name for c in pointer.children}
    assert {"pointer.constraint_adding",
            "pointer.constraint_solving"} <= children
    assert pointer.attrs["cg_nodes"] > 0


def test_sdg_and_modeling_subspans(traced_run):
    obs, _ = traced_run
    (sdg,) = obs.tracer.find("phase.sdg")
    assert [c.name for c in sdg.children] == [
        "sdg.build", "sdg.direct_edges", "sdg.heap_graph"]
    (modeling,) = obs.tracer.find("phase.modeling")
    child_names = {c.name for c in modeling.children}
    assert "modeling.ssa" in child_names and "modeling.lower" \
        in child_names
    (lower,) = obs.tracer.find("modeling.lower")
    assert [c.name for c in lower.children] == [
        "lang.stdlib", "lang.lex", "lang.parse", "lang.lower"]
    (lex,) = obs.tracer.find("lang.lex")
    assert lex.attrs["tokens"] == len(tokenize(APP))


def test_taint_rule_spans(traced_run):
    obs, result = traced_run
    (taint,) = obs.tracer.find("phase.taint")
    rule_spans = [c for c in taint.children if c.name == "taint.rule"]
    assert rule_spans, "each consulted rule opens a taint.rule span"
    assert sum(span.attrs.get("flows", 0) for span in rule_spans) \
        == len(result.flows)


def test_registry_snapshot_contents(traced_run):
    _, result = traced_run
    metrics = result.metrics
    assert metrics["counters"]["pointer.propagations"] > 0
    assert metrics["counters"]["report.issues"] == result.issues
    assert metrics["gauges"]["callgraph.nodes"] == result.cg_nodes
    assert metrics["gauges"]["memory.peak_bytes"] > 0
    assert metrics["gauges"]["pointer.worklist_depth_peak"] > 0
    solving = metrics["timers"]["pointer.constraint_solving"]
    assert solving["count"] == 1 and solving["max"] >= solving["p50"]
    assert metrics["histograms"]["pointer.pts_set_size"]["count"] > 0


def test_solver_stats_come_from_the_registry(traced_run):
    _, result = traced_run
    stats = result.solver_stats()
    assert stats["propagations"] \
        == result.metrics["counters"]["pointer.propagations"]
    assert stats["time_constraint_solving"] == pytest.approx(
        result.metrics["timers"]["pointer.constraint_solving"]["total"])


def test_provenance_rides_on_the_result(traced_run):
    _, result = traced_run
    flows = result.provenance["flows"]
    assert len(flows) == len(result.flows)
    assert all(w["grouping"]["grouped"] for w in flows)
    consulted = {r["rule"] for r in
                 result.provenance["rules_consulted"]}
    assert "XSS" in consulted


def test_default_run_still_collects_metrics():
    result = TAJ(TAJConfig.hybrid_optimized()).analyze_sources([APP])
    assert result.metrics["counters"]["pointer.propagations"] > 0
    assert result.times.total > 0.0
    # audit and memory sampling stay opt-in
    assert result.provenance == {}
    assert "memory.peak_bytes" not in result.metrics["gauges"]
