"""The serial rule sweep replays bit for bit: repeated runs record the
same flows, counters and spans; the degradation ladder and a mid-sweep
deadline cut the same partial report every time; and the §6.2.2 flow
length bound drops exactly the flows longer than the bound, counting
each one."""

import pytest

from repro.bench.generator import scaling_corpus
from repro.bounds import Budget
from repro.core import TAJ, TAJConfig
from repro.modeling import default_natives, prepare
from repro.obs import Observability
from repro.pointer import ContextPolicy, PointerAnalysis
from repro.pointer.heapgraph import HeapGraph
from repro.resilience import Fault, FaultPlan
from repro.sdg.hsdg import DirectEdges
from repro.sdg.noheap import NoHeapSDG
from repro.taint import TaintEngine, default_rules

# The scale-2 generator corpus: ~7 servlets, flows of lengths 1 to 7.
APP_SOURCES = scaling_corpus(2).sources

# Two servlets, so a CS state budget trips the ladder before either
# rule completes.
APP = """
class M0 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("a"));
  }
}
class M1 extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("b"));
    Connection c = DriverManager.getConnection("db");
    c.createStatement().executeQuery("q" + req.getParameter("u"));
  }
}
"""


@pytest.fixture(scope="module")
def pieces():
    prepared = prepare(APP_SOURCES)
    analysis = PointerAnalysis(prepared.program, ContextPolicy(),
                               natives=default_natives())
    analysis.solve()
    sdg = NoHeapSDG(prepared.program, analysis.call_graph)
    return sdg, DirectEdges(sdg, analysis), HeapGraph(analysis)


def _sweep(pieces, budget, strategy="hybrid", obs=None):
    sdg, direct, heap = pieces
    return TaintEngine(sdg, direct, heap, default_rules(), budget,
                       strategy=strategy, obs=obs).run()


def _canon(result):
    return ([f.sort_key() for f in result.flows], result.completed_rules,
            result.final_strategy, result.failed, result.truncated,
            result.suppressed_by_length)


def _pipeline_report(config, faults=None):
    result = TAJ(config, faults=faults).analyze_sources(APP_SOURCES)
    issues = (sorted((i.rule, i.source, i.sink)
                     for i in result.report.issues)
              if result.report is not None else None)
    return issues, result.completeness, result.failed


def test_repeated_sweeps_record_identically(pieces):
    """Flows, counters and per-rule spans are a function of the input:
    no run-to-run drift in order or value."""
    def run():
        obs = Observability()
        result = _sweep(pieces, Budget(), obs=obs)
        counters = obs.metrics.snapshot()["counters"]
        spans = [(s.name, s.attrs.get("rule"), s.attrs.get("flows"))
                 for s in obs.tracer.find("taint.rule")]
        return _canon(result), counters, spans

    first = run()
    assert first[0][0], "the corpus must produce flows"
    for _ in range(2):
        assert run() == first


@pytest.mark.parametrize("strategy", ["hybrid", "ci", "cs"])
def test_flow_length_bound_drops_and_counts_only_longer_flows(pieces,
                                                              strategy):
    bound = 5
    unbounded = _sweep(pieces, Budget(), strategy)
    bounded = _sweep(pieces, Budget(max_flow_length=bound), strategy)
    short = [f.sort_key() for f in unbounded.flows if f.length <= bound]
    assert short and len(short) < len(unbounded.flows), \
        "the bound must bite on this corpus"
    assert [f.sort_key() for f in bounded.flows] == short
    assert bounded.suppressed_by_length == \
        len(unbounded.flows) - len(short)
    assert unbounded.suppressed_by_length == 0


def test_heap_transition_budget_cuts_the_same_slice_every_run(pieces):
    first = _canon(_sweep(pieces, Budget(max_heap_transitions=3)))
    assert first[4], "the heap-transition budget must truncate"
    assert first != _canon(_sweep(pieces, Budget()))
    for _ in range(2):
        assert _canon(_sweep(pieces, Budget(max_heap_transitions=3))) == \
            first


def test_ladder_trip_is_repeatable():
    """A CS state-budget trip walks the ladder to the same partial
    report on every run."""
    config = TAJConfig.cs(max_state_units=5).with_resilience(
        resilient=True)
    first = _pipeline_report(config)
    assert first[1] == "partial-budget"
    assert first[0], "the fallback rung still reports issues"
    for _ in range(2):
        assert _pipeline_report(config) == first


def test_mid_sweep_deadline_is_repeatable():
    """A deadline tripped inside the sweep (injected, so it fires at
    the same rule every time) yields the same partial report."""
    config = TAJConfig.hybrid_unbounded().with_resilience(
        deadline_seconds=3600.0, resilient=True)
    faults = FaultPlan.of(Fault("slicing.hybrid", action="trip-deadline"))
    first = _pipeline_report(config, faults)
    assert not first[2], "a deadline abort is partial, not failed"
    assert first[1].startswith("partial"), first[1]
    for _ in range(2):
        assert _pipeline_report(config, faults) == first


def test_ladder_degradations_repeat_identically():
    def degradations():
        config = TAJConfig.cs(max_state_units=5).with_resilience(
            resilient=True)
        result = TAJ(config).analyze_sources([APP])
        return [(d.phase, d.trigger, d.fallback)
                for d in result.degradations]

    first = degradations()
    assert first, "the tiny CS budget must trip the ladder"
    for _ in range(2):
        assert degradations() == first
