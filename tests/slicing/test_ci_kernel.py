"""The compiled CI kernel against the per-seed BFS it replaced.

``CISlicer`` compiles each rule's graph once and replays it per seed;
``tests/slicing/reference_ci.py`` is the old walk, verbatim.  On the
same SDG the two must agree per rule on the flows (every field), the
``truncated`` flag and the ``suppressed_by_length`` count — over the
micro + securibench programs, the Table-2 apps and two generator
corpora, unbounded and under heap-transition / flow-length budgets —
and a ``ci.step`` fault must cut both at the same fact.
"""

import pytest

from repro.bench import securibench
from repro.bench.generator import scaling_corpus, summary_corpus
from repro.bench.micro import MICRO_CASES, MICRO_DESCRIPTORS, MOTIVATING
from repro.bench.suite import generate_suite
from repro.bounds import Budget
from repro.core import TAJ, TAJConfig
from repro.modeling import default_natives, prepare
from repro.obs import Observability
from repro.pointer import (ChaoticOrder, ContextPolicy, PointerAnalysis,
                           PolicyConfig)
from repro.pointer.heapgraph import HeapGraph
from repro.resilience import Fault, FaultPlan
from repro.sdg.hsdg import DirectEdges
from repro.sdg.noheap import NoHeapSDG
from repro.slicing import CISlicer
from repro.taint import TaintEngine, default_rules
from tests.slicing.reference_ci import ReferenceCISlicer


def _inputs():
    """(id, sources, deployment descriptor) for every compared input."""
    out = [("micro:Motivating", [MOTIVATING], None)]
    out += [(f"micro:{name}", [source], MICRO_DESCRIPTORS.get(name))
            for name, (source, _) in sorted(MICRO_CASES.items())]
    out += [(f"securibench:{category}:{name}", [source], None)
            for category, name, source, _ in securibench.all_cases()]
    apps = [(f"table2:{name}", app)
            for name, app in sorted(generate_suite().items())]
    apps.append(("scaling_corpus(10)", scaling_corpus(10, seed=7)))
    apps.append(("summary_corpus(24,64,10)", summary_corpus(24, 64, 10)))
    out += [(name, app.sources, app.deployment_descriptor or None)
            for name, app in apps]
    return out


INPUTS = _inputs()
BUDGETS = [Budget()] + [
    Budget(max_heap_transitions=k, max_flow_length=f)
    for k in (0, 1, 3, 10) for f in (None, 12)]


def _budget_id(budget):
    return f"k={budget.max_heap_transitions},f={budget.max_flow_length}"


def build_pieces(sources, descriptor=None):
    """The SDG the ``ci`` preset slices: context-insensitive pointers,
    chaotic call-graph order, no whitelist."""
    prepared = prepare(sources, descriptor)
    analysis = PointerAnalysis(prepared.program,
                               ContextPolicy(PolicyConfig.insensitive()),
                               natives=default_natives(),
                               order=ChaoticOrder())
    analysis.solve()
    sdg = NoHeapSDG(prepared.program, analysis.call_graph)
    return sdg, DirectEdges(sdg, analysis), HeapGraph(analysis)


def slice_per_rule(cls, pieces, budget, carrier_cache, resilience=None):
    """Per rule: (flows, truncated so far, flows suppressed by length)."""
    slicer = cls(*pieces, budget, resilience=resilience,
                 carrier_cache=carrier_cache)
    out = []
    for rule in default_rules():
        before = slicer.suppressed_by_length
        flows = slicer.slice_rule(rule)
        out.append((rule.name, flows, slicer.truncated,
                    slicer.suppressed_by_length - before))
    return out


def test_corpus_spans_every_named_input():
    assert len(INPUTS) == 63 + 22 + 2


@pytest.mark.parametrize("sources,descriptor",
                         [(s, d) for _, s, d in INPUTS],
                         ids=[name for name, _, _ in INPUTS])
def test_kernel_matches_reference(sources, descriptor):
    pieces = build_pieces(sources, descriptor)
    # The carrier index depends only on the rule and the nested-depth
    # bound, which every budget here leaves unset: share it.
    carriers = {}
    for budget in BUDGETS:
        kernel = slice_per_rule(CISlicer, pieces, budget, carriers)
        reference = slice_per_rule(ReferenceCISlicer, pieces, budget,
                                   carriers)
        assert kernel == reference, _budget_id(budget)


@pytest.mark.parametrize("name,limit", [
    ("micro:Motivating", 0), ("table2:GridSphere", 1),
    ("scaling_corpus(10)", 3)])
def test_heap_budget_trips_alike(name, limit):
    """The sweep above is only a budget test if some case trips the
    §6.2.1 budget: these do, on both sides."""
    (_, sources, descriptor), = [row for row in INPUTS if row[0] == name]
    pieces = build_pieces(sources, descriptor)
    budget = Budget(max_heap_transitions=limit)
    kernel = slice_per_rule(CISlicer, pieces, budget, {})
    assert kernel[-1][2], "the heap budget must trip"
    assert kernel == slice_per_rule(ReferenceCISlicer, pieces, budget, {})


# Three walks reach Relay.out's ``text`` in the same number of steps:
# through the local concat edge, and through AuditTrail.log from either
# call site.  A fact keeps the metadata of its first push, so the flow's
# LCP names the route the walk order takes first: local edges before
# call sites.
FIRST_PUSH_WINS = """
library class AuditTrail {
  static void log(HttpServletResponse resp, String msg) {
    Relay.out(resp, msg);
  }
}
library class Relay {
  static void out(HttpServletResponse resp, String text) {
    resp.getWriter().println(text);
  }
}
class Twice extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    String a = req.getParameter("p");
    AuditTrail.log(resp, a);
    AuditTrail.log(resp, a);
    Relay.out(resp, a + "!");
  }
}
"""


def test_first_push_wins_in_walk_order():
    pieces = build_pieces([FIRST_PUSH_WINS])
    kernel = slice_per_rule(CISlicer, pieces, Budget(), {})
    assert kernel == slice_per_rule(ReferenceCISlicer, pieces, Budget(), {})
    (flow,) = [flow for _, flows, _, _ in kernel for flow in flows]
    (relay,) = [site.stmt.ref for site in pieces[0].call_sites[
        "Twice.doGet/2"] if site.call.method_name == "out"]
    assert flow.lcp == relay


class _CountingSeam:
    """A resilience stand-in that counts ``ci.step`` checks."""

    def __init__(self):
        self.steps = 0

    def check(self, seam, phase=None):
        assert seam == "ci.step"
        self.steps += 1


def test_visits_count_bfs_pops_and_facts_are_compiled_once():
    app = summary_corpus(8, 24, 4)
    pieces = build_pieces(app.sources, app.deployment_descriptor or None)
    seam = _CountingSeam()
    slicer = CISlicer(*pieces, Budget(), resilience=seam)
    total_facts = 0
    for rule in default_rules():
        before = seam.steps
        slicer.slice_rule(rule)
        facts, visits = (slicer.rule_attrs["facts"],
                         slicer.rule_attrs["visits"])
        assert visits == seam.steps - before
        assert facts <= visits
        total_facts += facts
    # A shared library replays: far more visits than compiled facts.
    assert seam.steps > 4 * total_facts > 0


def test_taint_rule_span_reports_replay_factor():
    app = summary_corpus(4, 16, 4)
    pieces = build_pieces(app.sources, app.deployment_descriptor or None)
    for strategy in ("ci", "hybrid"):
        obs = Observability()
        TaintEngine(*pieces, default_rules(), Budget(), strategy=strategy,
                    obs=obs).run()
        spans = obs.tracer.find("taint.rule")
        assert len(spans) == len(list(default_rules()))
        if strategy == "ci":
            assert all(span.attrs["visits"] >= span.attrs["facts"] >= 0
                       for span in spans)
            assert any(span.attrs["visits"] > 0 for span in spans)
        else:
            assert not any({"facts", "visits"} & set(span.attrs)
                           for span in spans)


FAULT_APP = scaling_corpus(2).sources


def _faulted_run(fault, budget):
    config = TAJConfig.ci().with_budget(
        max_heap_transitions=budget).with_resilience(
            deadline_seconds=3600.0, resilient=True)
    result = TAJ(config, faults=FaultPlan.of(fault)).analyze_sources(
        FAULT_APP)
    return (result.completeness, result.flows, result.truncated,
            [(d.phase, d.trigger, d.fallback) for d in result.degradations],
            [(d.phase, d.kind) for d in result.diagnostics])


@pytest.mark.parametrize("budget", [None, 1], ids=["unbounded", "k=1"])
@pytest.mark.parametrize("action", ["trip-deadline", "raise"])
@pytest.mark.parametrize("at", [0, 9, 120, 309, 10 ** 9])
def test_ci_step_fault_cuts_both_alike(monkeypatch, at, action, budget):
    fault = Fault("ci.step", at=at, action=action)
    kernel = _faulted_run(fault, budget)
    monkeypatch.setattr("repro.taint.engine.CISlicer", ReferenceCISlicer)
    reference = _faulted_run(fault, budget)
    assert kernel == reference
    if at < 10 ** 9:
        assert kernel[0] != "complete", "the fault must land in the sweep"
