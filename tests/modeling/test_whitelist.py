"""Whitelist code-reduction tests (paper §4.2.1)."""

from dataclasses import replace

from repro import TAJ, TAJConfig
from repro.modeling import (default_whitelist, load_stdlib, prepare,
                            validate_whitelist)

LOGGER_TRAP = """
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    Logger.log(req.getParameter("p"));
  }
  void doPost(HttpServletRequest req, HttpServletResponse resp) {
    Logger.log("served");
    resp.getWriter().println(Logger.recent());
  }
}
"""


def test_default_whitelist_contents():
    names = default_whitelist()
    assert {"Logger", "Metrics", "Assertions"} <= names


def test_validate_whitelist_drops_application_classes():
    program = load_stdlib()
    from repro.lang import lower_source
    lower_source("class MyApp { }", program)
    cleaned = validate_whitelist(program, {"Logger", "MyApp", "Ghost"})
    assert "Logger" in cleaned
    assert "MyApp" not in cleaned        # app code may never be excluded
    assert "Ghost" in cleaned            # unknown names are harmless


def test_logger_conflation_without_whitelist():
    result = TAJ(TAJConfig.hybrid_unbounded()).analyze_sources(
        [LOGGER_TRAP])
    assert result.issues == 1  # the Logger static-state conflation


def test_whitelist_removes_the_conflation():
    config = replace(TAJConfig.hybrid_unbounded(), use_whitelist=True)
    result = TAJ(config).analyze_sources([LOGGER_TRAP])
    assert result.issues == 0


def test_whitelist_reduces_call_graph():
    plain = TAJ(TAJConfig.hybrid_unbounded()).analyze_sources(
        [LOGGER_TRAP])
    config = replace(TAJConfig.hybrid_unbounded(), use_whitelist=True)
    reduced = TAJ(config).analyze_sources([LOGGER_TRAP])
    assert reduced.cg_nodes < plain.cg_nodes


def test_whitelist_extra_only_accepts_library_classes():
    source = LOGGER_TRAP + """
class AppHelper {
  static String pass(String v) { return v; }
}
"""
    config = replace(TAJConfig.hybrid_unbounded(), use_whitelist=True,
                     whitelist_extra=frozenset({"AppHelper"}))
    result = TAJ(config).analyze_sources([source])
    # AppHelper is application code: the extra entry is ignored, so
    # flows through it would still be tracked.
    assert result.cg_nodes > 0


def test_whitelist_extra_names_absent_from_the_program_change_nothing():
    """Only a callee can be excluded, so an extra name that no class
    of the program bears leaves the run as the default list does."""
    config = replace(TAJConfig.hybrid_unbounded(), use_whitelist=True)
    plain = TAJ(config).analyze_sources([LOGGER_TRAP])
    ghost = TAJ(replace(config, whitelist_extra=frozenset({"Ghost"}))) \
        .analyze_sources([LOGGER_TRAP])
    assert (ghost.cg_nodes, ghost.cg_edges, ghost.issues) \
        == (plain.cg_nodes, plain.cg_edges, plain.issues)
    assert [f.sort_key() for f in ghost.flows] \
        == [f.sort_key() for f in plain.flows]
