"""End-to-end resilience: seams, degradation ladder, quarantine.

The injection matrix mirrors ``benchmarks/fault_injection.py`` (the CI
sweep) on one app so the contract is also enforced by the tier-1 suite:
a scripted fault at any pipeline seam yields a TAJResult with
diagnostics and a truthful completeness verdict — never a traceback.
"""

import pytest

from repro.core import TAJ, TAJConfig
from repro.lang.errors import SourceError
from repro.resilience import SEAMS, Fault, FaultPlan

APP = """
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("p"));
    Connection c = DriverManager.getConnection("db");
    c.createStatement().executeQuery("q" + req.getParameter("u"));
  }
}
"""

BROKEN = "class Broken { this is not jlang @@"

HELPER = """
class Util { static String id(String v) { return v; } }
"""


def run_with_fault(fault, config=None, deadline=3600.0):
    config = config or TAJConfig.hybrid_optimized()
    config = config.with_resilience(deadline_seconds=deadline,
                                    resilient=True)
    return TAJ(config, faults=FaultPlan.of(fault)).analyze_sources([APP])


# -- the injection matrix (every seam) -----------------------------------------

MATRIX = [
    (Fault("frontend.source", action="raise", exception="source"),
     None, {"partial-fault"}),
    (Fault("frontend.source", action="corrupt"),
     None, {"partial-fault"}),
    (Fault("modeling.pass", action="raise"), None, {"failed"}),
    (Fault("pointer.solve", action="raise"), None, {"failed"}),
    (Fault("pointer.solve", action="trip-deadline"),
     None, {"partial-deadline"}),
    (Fault("sdg.build", action="raise"), None, {"failed"}),
    (Fault("tabulation.step", action="raise"), None, {"partial-fault"}),
    (Fault("slicing.hybrid", action="raise", exception="budget"),
     None, {"partial-budget"}),
    (Fault("slicing.cs", action="raise", exception="budget"),
     TAJConfig.cs(), {"partial-budget"}),
    (Fault("slicing.ci", action="raise"), TAJConfig.ci(),
     {"partial-fault"}),
    (Fault("ci.step", action="trip-deadline"), TAJConfig.ci(),
     {"partial-deadline", "partial-fault"}),
    (Fault("slicing.summary", action="raise", exception="budget"),
     TAJConfig.summary(), {"partial-budget"}),
    (Fault("reporting.build", action="raise"), None, {"partial-fault"}),
    (Fault("confirm.replay", action="raise"),
     TAJConfig.hybrid_optimized().with_confirm(), {"partial-fault"}),
]


@pytest.mark.parametrize(
    "fault,config,expected", MATRIX,
    ids=[f"{f.seam}-{f.action}-{f.exception}" for f, _, _ in MATRIX])
def test_every_seam_fault_is_absorbed(fault, config, expected):
    result = run_with_fault(fault, config)
    assert result.completeness in expected
    assert result.diagnostics or result.degradations, \
        "an absorbed fault must not be silent"


def test_matrix_covers_every_seam():
    """Each listed seam fires in a real run, so ``SEAMS`` names only
    seams the pipeline checks."""
    assert {f.seam for f, _, _ in MATRIX} == set(SEAMS)


# -- degradation ladder --------------------------------------------------------

def test_cs_state_budget_walks_ladder_and_keeps_flows():
    """The acceptance scenario: a CS run tripping its state budget
    reports flows (via the hybrid fallback) with the rung recorded."""
    config = TAJConfig.cs(max_state_units=5).with_resilience(
        resilient=True)
    result = TAJ(config).analyze_sources([APP])
    assert not result.failed
    assert result.completeness == "partial-budget"
    assert result.issues >= 1, "fallback still finds the planted flows"
    rungs = [(d.trigger, d.fallback) for d in result.degradations]
    assert ("budget", "hybrid") in rungs
    assert result.metrics["counters"]["resilience.degradations"] >= 1


def test_cs_state_budget_without_ladder_still_fails():
    """resilient=False preserves the paper's CS OOM reproduction."""
    config = TAJConfig.cs(max_state_units=5)
    result = TAJ(config).analyze_sources([APP])
    assert result.failed
    assert result.completeness == "failed"
    assert result.issues == 0


def test_mid_sweep_budget_keeps_completed_rule_flows():
    """Rule 1 completes on the primary strategy; the injected budget
    trip on rule 2 falls back without discarding rule 1's flows."""
    fault = Fault("slicing.hybrid", at=1, exception="budget")
    result = run_with_fault(fault)
    assert result.completeness == "partial-budget"
    assert {f.rule for f in result.flows} == {"XSS", "SQLI"}
    assert [(d.trigger, d.fallback) for d in result.degradations] == \
        [("budget", "ci")]


def test_expired_deadline_yields_partial_result():
    config = TAJConfig.hybrid_optimized().with_resilience(
        deadline_seconds=0.0, resilient=True)
    result = TAJ(config).analyze_sources([APP])
    assert result.completeness == "partial-deadline"
    assert not result.failed
    assert result.degradations
    gauge = result.metrics["gauges"][
        "resilience.deadline_remaining_seconds"]
    assert gauge == 0.0


def test_generous_deadline_changes_nothing():
    config = TAJConfig.hybrid_optimized().with_resilience(
        deadline_seconds=3600.0, resilient=True)
    result = TAJ(config).analyze_sources([APP])
    assert result.completeness == "complete"
    assert result.degradations == [] and result.diagnostics == []
    assert result.issues >= 1
    gauge = result.metrics["gauges"][
        "resilience.deadline_remaining_seconds"]
    assert 0.0 < gauge <= 3600.0


# -- frontend quarantine -------------------------------------------------------

def test_broken_source_quarantined_rest_analyzed():
    config = TAJConfig.hybrid_optimized().with_resilience(resilient=True)
    result = TAJ(config).analyze_sources([HELPER, BROKEN, APP])
    assert result.completeness == "partial-fault"
    assert result.issues >= 1, "the healthy servlet is still analyzed"
    assert [d.source_index for d in result.diagnostics] == [1]
    assert result.diagnostics[0].phase == "frontend"
    assert result.diagnostics[0].kind == "source-error"
    counters = result.metrics["counters"]
    assert counters["resilience.quarantined_sources"] == 1


def test_lower_failure_quarantines_whole_unit():
    # Both classes live in one unit; the duplicate definition fails the
    # unit, quarantining its sibling class too.
    dup = HELPER + "\nclass Util { }"
    config = TAJConfig.hybrid_optimized().with_resilience(resilient=True)
    result = TAJ(config).analyze_sources([dup, APP])
    assert result.completeness == "partial-fault"
    assert result.issues >= 1
    assert any(d.source_index == 0 for d in result.diagnostics)


def test_strict_mode_still_raises_on_broken_source():
    with pytest.raises(SourceError):
        TAJ(TAJConfig.hybrid_optimized()).analyze_sources([BROKEN])


# -- legacy equivalence --------------------------------------------------------

def test_default_run_reports_complete():
    result = TAJ(TAJConfig.hybrid_optimized()).analyze_sources([APP])
    assert result.completeness == "complete"
    assert result.degradations == []
    assert result.diagnostics == []
