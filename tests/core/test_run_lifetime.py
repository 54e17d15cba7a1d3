"""A finished run is freed by reference counting.

Whatever a run creates must die with the last reference to its result.
An object kept alive by a reference cycle waits for a full collection
instead, and in a long-lived process the collector then walks it again
and again.  Each case below runs once to warm up, runs again, drops the
result, and collects under ``gc.DEBUG_SAVEALL``: the collector must find
nothing unreachable.

Every case runs on the facade's private
:class:`~repro.obs.Observability` bundle, so the run's span tree and
tracer must be freed with the rest of it.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro import TAJ, TAJConfig
from repro.bench import generate_suite
from repro.bench.micro import MOTIVATING
from repro.callgraph import PriorityOrder
from repro.modeling import default_natives, prepare
from repro.pointer import ChaoticOrder, ContextPolicy, PointerAnalysis
from repro.resilience import Fault, FaultPlan

PRESETS = {config.name: config for config in TAJConfig.all_presets()}


@pytest.fixture(scope="module")
def apps():
    out = {"Figure 1": ([MOTIVATING], None)}
    for name, app in generate_suite(["Webgoat", "Ginp", "B"]).items():
        out[name] = (app.sources, app.deployment_descriptor)
    return out


def assert_freed(apps, app, config, faults=None, completeness=None):
    sources, descriptor = apps[app]
    taj = TAJ(config, faults=faults)
    taj.analyze_sources(sources, descriptor)

    # The result is local to run(), so its last reference goes when
    # run() returns.
    def run():
        result = taj.analyze_sources(sources, descriptor)
        if completeness is not None:
            assert result.completeness == completeness

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        leftovers = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not leftovers, (
        f"{sum(leftovers.values())} objects left for the cyclic "
        f"collector: {leftovers.most_common(8)}")


@pytest.mark.parametrize("preset", [*PRESETS, "summary"])
@pytest.mark.parametrize("app", ["Figure 1", "Webgoat", "Ginp"])
def test_preset_run_is_freed(apps, app, preset, tmp_path):
    config = TAJConfig.summary(str(tmp_path)) if preset == "summary" \
        else PRESETS[preset]
    assert_freed(apps, app, config)


@pytest.mark.parametrize("resilient,completeness",
                         [(False, "failed"), (True, "partial-budget")])
def test_cs_budget_failure_is_freed(apps, resilient, completeness):
    config = TAJConfig.cs()
    if resilient:
        config = config.with_resilience(resilient=True)
    assert_freed(apps, "B", config, completeness=completeness)


def test_confirmed_run_is_freed(apps):
    assert_freed(apps, "Figure 1", TAJConfig.hybrid_unbounded().with_confirm())


@pytest.mark.parametrize("app,fault,completeness", [
    ("Figure 1", Fault("pointer.solve", at=2), "failed"),
    ("Figure 1", Fault("slicing.hybrid", exception="budget"),
     "partial-budget"),
    ("Webgoat", Fault("tabulation.step", at=50, exception="deadline"),
     "partial-deadline"),
], ids=["pointer-fault", "slicing-budget", "tabulation-deadline"])
def test_faulted_run_is_freed(apps, app, fault, completeness):
    assert_freed(apps, app, TAJConfig.hybrid_unbounded(),
                 FaultPlan.of(fault), completeness)


def solved(order):
    analysis = PointerAnalysis(prepare([MOTIVATING]).program,
                               ContextPolicy(), natives=default_natives(),
                               order=order)
    analysis.solve()
    return analysis


@pytest.mark.parametrize("make_order", [
    ChaoticOrder,
    lambda: PriorityOrder({"HttpServletRequest.getParameter"}, 10 ** 9),
], ids=["chaotic", "priority"])
def test_solved_analysis_dies_with_its_last_reference(make_order):
    enabled = gc.isenabled()
    gc.disable()
    try:
        analysis = solved(make_order())
        assert analysis.call_graph.node_count() > 0
        ref = weakref.ref(analysis)
        del analysis
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_each_analysis_owns_its_key_table():
    first, second = solved(ChaoticOrder()), solved(ChaoticOrder())
    assert first.keys is not second.keys
    a, b = first.keys.instances[0], second.keys.instances[0]
    assert a.index == b.index == 0
    assert str(a) == str(b) and a != b
    assert len(first.keys.instances) == len(second.keys.instances)
