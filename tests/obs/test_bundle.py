"""The observability bundle: one implementation per instrument, one
switch per opt-in, and the one-bundle rule — a pipeline component
built without a bundle records into a fresh ``Observability()``, and
the facade gives each call a bundle of its own unless one is passed."""

import tracemalloc

import pytest

import repro.confirm.oracle
import repro.modeling.pipeline
import repro.pointer.solver
import repro.reporting.report
import repro.taint.engine
from repro import TAJ, TAJConfig
from repro.bounds import Budget
from repro.confirm import ReplayOracle
from repro.modeling import (COLLECTION_CLASSES, FACTORY_METHODS,
                            default_natives, prepare)
from repro.obs import (MetricsRegistry, Observability, ProvenanceAudit,
                       SamplingProfiler, Tracer)
from repro.pointer import ContextPolicy, PointerAnalysis, PolicyConfig
from repro.pointer.heapgraph import HeapGraph
from repro.reporting import build_report
from repro.sdg.hsdg import DirectEdges
from repro.sdg.noheap import NoHeapSDG
from repro.taint import TaintEngine, default_rules

APP = """
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("p"));
    Connection c = DriverManager.getConnection("db");
    c.createStatement().executeQuery("q" + req.getParameter("u"));
  }
}
"""

PHASES = ["phase.modeling", "phase.pointer_analysis", "phase.sdg",
          "phase.taint", "phase.reporting"]


# -- the bundle's switches ------------------------------------------------------

def test_default_bundle_traces_and_counts_and_nothing_more():
    obs = Observability()
    assert isinstance(obs.tracer, Tracer)
    assert isinstance(obs.metrics, MetricsRegistry)
    assert obs.audit is None
    assert obs.profiler is None
    # Memory sampling is off: a sample records no gauge.
    obs.sample_memory()
    assert obs.metrics.snapshot()["gauges"] == {}


def test_given_tracer_and_registry_are_kept():
    tracer, metrics = Tracer(), MetricsRegistry()
    obs = Observability(tracer=tracer, metrics=metrics)
    assert obs.tracer is tracer
    assert obs.metrics is metrics
    with obs.span("phase.modeling"):
        pass
    assert [root.name for root in tracer.roots] == ["phase.modeling"]


GIVEN_AUDIT = ProvenanceAudit()


@pytest.mark.parametrize("switch,expected", [
    (False, None),
    (True, ProvenanceAudit),
    (GIVEN_AUDIT, GIVEN_AUDIT),
], ids=["off", "on", "given"])
def test_audit_switch(switch, expected):
    """The audit is ``None`` when off, like the profiler."""
    audit = Observability(audit=switch).audit
    if expected is None:
        assert audit is None
    elif expected is ProvenanceAudit:
        assert isinstance(audit, ProvenanceAudit)
        assert audit is not GIVEN_AUDIT
    else:
        assert audit is expected


def test_profile_switch_off():
    assert Observability(profile=False).profiler is None


def test_profile_switch_on_binds_the_bundle_tracer():
    obs = Observability(profile=True)
    assert isinstance(obs.profiler, SamplingProfiler)
    assert obs.profiler.tracer is obs.tracer
    assert not obs.profiler.running      # the facade starts it per run


def test_given_profiler_is_kept_and_bound_to_the_bundle_tracer():
    profiler = SamplingProfiler(interval=0.002)
    obs = Observability(profile=profiler)
    assert obs.profiler is profiler
    assert profiler.tracer is obs.tracer
    assert profiler.interval == 0.002


def test_given_profiler_keeps_its_own_tracer():
    tracer = Tracer()
    obs = Observability(profile=SamplingProfiler(tracer=tracer))
    assert obs.profiler.tracer is tracer
    assert obs.tracer is not tracer


def test_memory_bundle_owns_tracemalloc_until_finish():
    assert not tracemalloc.is_tracing()
    obs = Observability(memory=True)
    try:
        assert tracemalloc.is_tracing()
        ballast = [object() for _ in range(1000)]
        obs.sample_memory()
        assert obs.metrics.gauge_value("memory.peak_bytes") > 0
        del ballast
    finally:
        obs.finish()
    assert not tracemalloc.is_tracing()
    obs.finish()                          # idempotent
    assert not tracemalloc.is_tracing()


def test_memory_bundle_leaves_a_running_tracemalloc_alone():
    tracemalloc.start()
    try:
        obs = Observability(memory=True)
        obs.finish()
        assert tracemalloc.is_tracing()
        assert obs.metrics.gauge_value("memory.current_bytes") \
            is not None
    finally:
        tracemalloc.stop()


# -- components built without a bundle -------------------------------------------

@pytest.fixture(scope="module")
def pieces():
    """One program through both stages, every component given an
    explicit bundle so no fresh one is made here."""
    obs = Observability()
    prepared = prepare([APP], obs=obs)
    config = PolicyConfig(collection_classes=set(COLLECTION_CLASSES),
                          factory_methods=set(FACTORY_METHODS))
    analysis = PointerAnalysis(prepared.program, ContextPolicy(config),
                               natives=default_natives(), obs=obs)
    analysis.solve()
    sdg = NoHeapSDG(prepared.program, analysis.call_graph)
    direct, heap = DirectEdges(sdg, analysis), HeapGraph(analysis)
    flows = TaintEngine(sdg, direct, heap, default_rules(), Budget(),
                        obs=obs).run().flows
    return {"prepared": prepared, "sdg": sdg, "direct": direct,
            "heap": heap, "flows": flows}


@pytest.fixture
def fresh_bundles(monkeypatch):
    """Every ``Observability()`` a component makes for itself."""
    made = []

    class Recorded(Observability):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    for module in (repro.modeling.pipeline, repro.pointer.solver,
                   repro.taint.engine, repro.reporting.report,
                   repro.confirm.oracle):
        monkeypatch.setattr(module, "Observability", Recorded)
    return made


def _run_prepare(pieces):
    prepare([APP])


def _check_prepare(obs, pieces):
    assert obs.tracer.roots[0].name == "modeling.lower"
    assert obs.tracer.find("modeling.ssa")


def _run_pointer(pieces):
    PointerAnalysis(pieces["prepared"].program,
                    ContextPolicy(PolicyConfig()),
                    natives=default_natives()).solve()


def _check_pointer(obs, pieces):
    assert obs.metrics.counter_value("pointer.propagations") > 0
    assert obs.tracer.find("pointer.constraint_solving")


def _run_engine(pieces):
    TaintEngine(pieces["sdg"], pieces["direct"], pieces["heap"],
                default_rules(), Budget()).run()


def _check_engine(obs, pieces):
    rule_spans = obs.tracer.find("taint.rule")
    assert [span.attrs["rule"] for span in rule_spans] \
        == [rule.name for rule in default_rules()]
    assert obs.metrics.counter_value("taint.flows") \
        == len(pieces["flows"])


def _run_report(pieces):
    build_report(pieces["flows"], default_rules(),
                 pieces["prepared"].program)


def _check_report(obs, pieces):
    assert obs.metrics.counter_value("report.issues") == 2
    assert obs.metrics.counter_value("report.raw_flows") \
        == len(pieces["flows"])


def _run_oracle(pieces):
    ReplayOracle().confirm(pieces["flows"], [APP])


def _check_oracle(obs, pieces):
    assert obs.metrics.counter_value("confirm.probes") > 0
    assert len(obs.tracer.find("confirm.replay")) == 2


COMPONENTS = {
    "prepare": (_run_prepare, _check_prepare),
    "PointerAnalysis": (_run_pointer, _check_pointer),
    "TaintEngine": (_run_engine, _check_engine),
    "build_report": (_run_report, _check_report),
    "ReplayOracle": (_run_oracle, _check_oracle),
}


@pytest.mark.parametrize("component", list(COMPONENTS))
def test_component_without_a_bundle_records_into_a_fresh_one(
        component, pieces, fresh_bundles):
    run, check = COMPONENTS[component]
    run(pieces)
    # The component's own bundle is the first one made; the oracle's
    # replay preparation makes another for itself.
    obs = fresh_bundles[0]
    assert obs.audit is None and obs.profiler is None
    check(obs, pieces)


def test_components_without_a_bundle_do_not_share_one(pieces):
    program = pieces["prepared"].program
    first = PointerAnalysis(program, ContextPolicy(PolicyConfig()))
    second = PointerAnalysis(program, ContextPolicy(PolicyConfig()))
    assert first.obs is not second.obs


# -- the facade's bundle --------------------------------------------------------

def test_each_call_without_a_bundle_records_only_its_own_run():
    taj = TAJ(TAJConfig.hybrid_optimized())
    first = taj.analyze_sources([APP])
    second = taj.analyze_sources([APP])
    for result in (first, second):
        counters = result.metrics["counters"]
        assert counters["report.issues"] == result.issues == 2
        assert counters["taint.flows"] == len(result.flows)
    assert taj.obs is None


def test_the_call_bundle_beats_the_constructor_bundle():
    built, passed = Observability(), Observability()
    TAJ(TAJConfig.hybrid_optimized(), obs=built) \
        .analyze_sources([APP], obs=passed)
    assert built.tracer.roots == []
    assert [root.name for root in passed.tracer.roots] == PHASES


def test_the_constructor_bundle_records_the_run():
    obs = Observability(audit=True)
    result = TAJ(TAJConfig.hybrid_optimized(),
                 obs=obs).analyze_sources([APP])
    assert [root.name for root in obs.tracer.roots] == PHASES
    assert result.metrics == obs.metrics.snapshot()
    assert result.provenance == obs.audit.to_payload()
    assert len(result.provenance["flows"]) == len(result.flows)


def test_a_finished_run_stops_the_tracemalloc_its_bundle_started():
    assert not tracemalloc.is_tracing()
    result = TAJ(TAJConfig.hybrid_optimized(),
                 obs=Observability(memory=True)).analyze_sources([APP])
    assert not tracemalloc.is_tracing()
    assert result.metrics["gauges"]["memory.peak_bytes"] > 0
