"""Integration tests on the paper's Figure 1 motivating program."""

from repro.bench.micro import MOTIVATING


def issue_lines(result):
    return sorted(i.sink_line for i in result.report.issues)


def test_hybrid_reports_exactly_the_bad_println(motivating_hybrid):
    assert motivating_hybrid.issues == 1
    issue = motivating_hybrid.report.issues[0]
    assert issue.rule == "XSS"
    assert issue.sink_method == "PrintWriter.println"
    assert issue.via_carrier  # the Internal object is a taint carrier


def test_hybrid_source_is_fname_parameter(motivating_hybrid):
    issue = motivating_hybrid.report.issues[0]
    # The source is the first getParameter call ("fName"), which is on a
    # lower line than the second one.
    assert "Motivating.doGet" in issue.source


def test_cs_matches_hybrid_on_figure1(motivating_cs):
    assert motivating_cs.issues == 1


def test_ci_reports_all_three_printlns(motivating_ci):
    """CI cannot disambiguate the three reflective id() calls, exactly
    as the paper's discussion of Figure 1 predicts."""
    assert motivating_ci.issues == 3


def test_reflection_was_resolved(motivating_hybrid):
    counters = motivating_hybrid.metrics["counters"]
    assert counters["modeling.reflective_calls_resolved"] == 3


def test_dictionary_accesses_modeled(motivating_hybrid):
    counters = motivating_hybrid.metrics["counters"]
    assert counters["modeling.dictionary_accesses"] >= 6


def test_flows_are_deduplicated(motivating_hybrid):
    keys = [f.key() for f in motivating_hybrid.flows]
    assert len(keys) == len(set(keys))


def test_lcp_is_the_sink_call(motivating_hybrid):
    """The sink println is invoked directly from application code, so it
    is itself the last app→library transition (the LCP)."""
    issue = motivating_hybrid.report.issues[0]
    assert issue.lcp == issue.sink


def test_call_graph_includes_reflective_target(motivating_hybrid):
    assert motivating_hybrid.cg_nodes > 0


def test_phase_times_recorded(motivating_hybrid):
    times = motivating_hybrid.times
    assert times.total > 0
    assert times.pointer_analysis >= 0
    assert times.taint >= 0
