"""Differential testing: dynamic execution vs the static strategies,
and the optimised solver kernel vs the seed solver kept as an oracle.

For randomly composed servlets we check the soundness lattice

    dynamically-confirmed  ⊆  hybrid findings  ⊆  CI findings

— the strongest cross-validation in the repository: any violation means
either the interpreter realizes a flow the static analysis misses
(static unsoundness) or CI misses something hybrid finds (broken
baseline ordering).

The solver property test checks the kernel overhaul end to end: for
every composed program, :class:`repro.pointer.PointerAnalysis` (interned
keys, coalescing worklist, bitset points-to sets) must compute the
identical least fixpoint as the seed solver,
:class:`tests.pointer.reference_solver.SeedPointerAnalysis`.
Both run with an unbounded budget — the fixpoint is order-independent,
but budget truncation is not.
"""

from hypothesis import given, settings, strategies as st

from repro import TAJ, TAJConfig
from repro.interp import run_dynamic
from repro.modeling import default_natives, prepare
from repro.pointer import ChaoticOrder, ContextPolicy, PointerAnalysis
from tests.pointer.reference_solver import SeedPointerAnalysis

SNIPPETS = {
    "direct": '    resp.getWriter().println(req.getParameter("p{i}"));',
    "sanitized": ('    resp.getWriter().println('
                  'URLEncoder.encode(req.getParameter("p{i}")));'),
    "concat": ('    String v{i} = "a" + req.getParameter("p{i}");\n'
               '    resp.getWriter().println(v{i});'),
    "heap": ('    Box{i} b{i} = new Box{i}();\n'
             '    b{i}.v = req.getParameter("p{i}");\n'
             '    resp.getWriter().println(b{i}.v);'),
    "carrier": ('    Box{i} b{i} = new Box{i}();\n'
                '    b{i}.v = req.getParameter("p{i}");\n'
                '    resp.getWriter().println(b{i});'),
    "helper": ('    resp.getWriter().println('
               'Util{i}.pass(req.getParameter("p{i}")));'),
    "constant": '    resp.getWriter().println("static{i}");',
    "map": ('    HashMap m{i} = new HashMap();\n'
            '    m{i}.put("k", req.getParameter("p{i}"));\n'
            '    resp.getWriter().println(m{i}.get("k"));'),
}
NEEDS_BOX = {"heap", "carrier"}
NEEDS_UTIL = {"helper"}


def build_source(choices):
    aux = []
    methods = []
    calls = []
    for i, kind in enumerate(choices):
        if kind in NEEDS_BOX:
            aux.append(f"class Box{i} {{ String v; }}")
        if kind in NEEDS_UTIL:
            aux.append(f"class Util{i} {{ static String pass(String v) "
                       f"{{ return v; }} }}")
        methods.append(f"""
  void flow{i}(HttpServletRequest req, HttpServletResponse resp) {{
{SNIPPETS[kind].format(i=i)}
  }}""")
        calls.append(f"    this.flow{i}(req, resp);")
    return "\n".join(aux) + f"""
class D extends HttpServlet {{
  void doGet(HttpServletRequest req, HttpServletResponse resp) {{
{chr(10).join(calls)}
  }}
{''.join(methods)}
}}"""


choice_lists = st.lists(st.sampled_from(sorted(SNIPPETS)), min_size=1,
                        max_size=4)


def sink_methods(result):
    return {i.sink.split("@")[0] for i in result.report.issues}


@given(choice_lists)
@settings(max_examples=15, deadline=None)
def test_soundness_lattice(choices):
    source = build_source(choices)
    summary = run_dynamic([source])
    dynamic = {w.sink_method for w in summary.witnesses
               if summary.confirms("XSS", w.sink_method)}
    hybrid = sink_methods(
        TAJ(TAJConfig.hybrid_unbounded()).analyze_sources([source]))
    ci = sink_methods(TAJ(TAJConfig.ci()).analyze_sources([source]))
    assert dynamic <= hybrid, (choices, dynamic - hybrid)
    assert hybrid <= ci, (choices, hybrid - ci)


@given(choice_lists)
@settings(max_examples=10, deadline=None)
def test_hybrid_is_exact_on_these_patterns(choices):
    """On this pattern pool the hybrid analysis is both sound and
    complete: its finding set equals the dynamically-confirmed set."""
    source = build_source(choices)
    summary = run_dynamic([source])
    dynamic = {w.sink_method for w in summary.witnesses
               if summary.confirms("XSS", w.sink_method)}
    hybrid = sink_methods(
        TAJ(TAJConfig.hybrid_unbounded()).analyze_sources([source]))
    assert dynamic == hybrid, (choices, dynamic, hybrid)


# -- solver kernel: optimised vs seed ----------------------------------------

def canonical_solution(analysis):
    """Key-family-independent form of a points-to solution.

    The optimised solver uses interned keys, the seed its original
    dataclasses, so solutions are compared through their canonical
    string forms (the ``__str__`` formats match by construction).
    """
    out = {}
    for key, pts in analysis.iter_pts():
        if pts:
            out[str(key)] = frozenset(str(ik) for ik in pts)
    return out


def solve_with(cls, prepared):
    analysis = cls(prepared.program, ContextPolicy(),
                   natives=default_natives(), order=ChaoticOrder())
    analysis.solve()
    return analysis


@given(choice_lists)
@settings(max_examples=15, deadline=None)
def test_optimized_solver_matches_seed_fixpoint(choices):
    """Interning, bitset points-to sets and coalescing must not change
    the least fixpoint: every pointer key points to the same instance
    keys under both kernels, in both directions."""
    prepared = prepare([build_source(choices)])
    seed = solve_with(SeedPointerAnalysis, prepared)
    optimized = solve_with(PointerAnalysis, prepared)
    seed_solution = canonical_solution(seed)
    opt_solution = canonical_solution(optimized)
    assert seed_solution == opt_solution, (
        choices,
        {k: v for k, v in seed_solution.items()
         if opt_solution.get(k) != v},
        {k: v for k, v in opt_solution.items()
         if seed_solution.get(k) != v},
    )
    # The call graphs must agree too: same nodes reached, same edges.
    assert (seed.call_graph.node_count() ==
            optimized.call_graph.node_count()), choices
    assert (seed.call_graph.edge_count() ==
            optimized.call_graph.edge_count()), choices
