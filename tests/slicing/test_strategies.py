"""Strategy-differentiation tests: hybrid vs CS vs CI (paper §3.2, §7)."""

import pytest

from repro import TAJ, TAJConfig
from repro.bench.micro import MICRO_CASES, MOTIVATING
from repro.bounds import Budget


def run(config, source, descriptor=None):
    return TAJ(config).analyze_sources([source],
                                       deployment_descriptor=descriptor)


SHARED_HELPER = """
class Ident {
  static String id(String v) { return v; }
}
class C extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    String dirty = Ident.id(req.getParameter("p"));
    String clean = Ident.id("constant");
    resp.getWriter().println(clean);
  }
}
"""


def test_hybrid_is_context_sensitive_for_locals():
    result = run(TAJConfig.hybrid_unbounded(), SHARED_HELPER)
    assert result.issues == 0


def test_ci_conflates_shared_helper():
    result = run(TAJConfig.ci(), SHARED_HELPER)
    assert result.issues == 1


def test_cs_is_context_sensitive_for_locals():
    result = run(TAJConfig.cs(), SHARED_HELPER)
    assert result.issues == 0


CROSS_ENTRYPOINT = """
class Registry {
  static String slot;
}
class Writer extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    Registry.slot = req.getParameter("p");
  }
}
class Reader extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(Registry.slot);
  }
}
"""


def test_hybrid_heap_is_flow_insensitive_across_entrypoints():
    result = run(TAJConfig.hybrid_unbounded(), CROSS_ENTRYPOINT)
    assert result.issues == 1  # reported (sound for concurrent requests)


def test_ci_also_reports_cross_entrypoint_flow():
    result = run(TAJConfig.ci(), CROSS_ENTRYPOINT)
    assert result.issues == 1


def test_cs_threads_heap_along_calls_only():
    result = run(TAJConfig.cs(), CROSS_ENTRYPOINT)
    assert result.issues == 0  # no call path connects store and load


THREADED = MICRO_CASES["thread_flow"][0]


def test_cs_unsound_for_threads():
    assert run(TAJConfig.cs(), THREADED).issues == 0


def test_hybrid_sound_for_threads():
    assert run(TAJConfig.hybrid_unbounded(), THREADED).issues == 1


def test_ci_sound_for_threads():
    assert run(TAJConfig.ci(), THREADED).issues == 1


def test_cs_memory_budget_failure():
    config = TAJConfig.cs(max_state_units=5)
    result = run(config, MICRO_CASES["heap_flow"][0])
    assert result.failed
    assert result.issues == 0
    assert "state_units" in (result.failure or "")


def test_heap_transition_bound_truncates():
    config = TAJConfig.hybrid_unbounded().with_budget(
        max_heap_transitions=0)
    result = run(config, MICRO_CASES["heap_flow"][0])
    assert result.truncated
    assert result.issues == 0


def test_flow_length_bound_suppresses_long_flows():
    long_chain = """
class Chain {
  static String h0(String v) { return Chain.h1(v + ""); }
  static String h1(String v) { return Chain.h2(v + ""); }
  static String h2(String v) { return Chain.h3(v + ""); }
  static String h3(String v) { return v + ""; }
}
class C extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(Chain.h0(req.getParameter("p")));
  }
}
"""
    unbounded = run(TAJConfig.hybrid_unbounded(), long_chain)
    assert unbounded.issues == 1
    tight = run(TAJConfig.hybrid_unbounded().with_budget(
        max_flow_length=3), long_chain)
    assert tight.issues == 0
    assert tight.metrics["counters"]["taint.suppressed_by_length"] == 1


def test_nested_depth_bound_misses_deep_carrier():
    deep = MICRO_CASES["taint_carrier"][0]
    # taint_carrier stores at depth 1: both settings find it.
    assert run(TAJConfig.hybrid_unbounded(), deep).issues == 1
    shallow = TAJConfig.hybrid_unbounded().with_budget(max_nested_depth=1)
    assert run(shallow, deep).issues == 1


def test_deep_nesting_beyond_bound():
    source = """
class L3 { String s; }
class L2 { L3 c; L2() { this.c = new L3(); } }
class L1 { L2 c; L1() { this.c = new L2(); } }
class L0 { L1 c; L0() { this.c = new L1(); } }
class C extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    L0 box = new L0();
    L1 a = box.c;
    L2 b = a.c;
    L3 d = b.c;
    d.s = req.getParameter("p");
    resp.getWriter().println(box);
  }
}
"""
    assert run(TAJConfig.hybrid_unbounded(), source).issues == 1
    bounded = TAJConfig.hybrid_unbounded().with_budget(max_nested_depth=2)
    assert run(bounded, source).issues == 0


def test_motivating_example_per_strategy(motivating_hybrid, motivating_ci,
                                         motivating_cs):
    # The paper's Figure 1: one real issue; CI conflates the reflective
    # id() calls and reports all three printlns.
    assert motivating_hybrid.issues == 1
    assert motivating_cs.issues == 1
    assert motivating_ci.issues == 3


def test_all_flows_same_sink_method(motivating_ci):
    sinks = {i.sink_method for i in motivating_ci.report.issues}
    assert sinks == {"PrintWriter.println"}
