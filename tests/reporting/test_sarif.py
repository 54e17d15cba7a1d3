"""SARIF export tests."""

import json

import pytest

from repro import TAJ, TAJConfig, default_rules
from repro.reporting import render_sarif, to_sarif

APP = """
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("p"));
  }
}
"""


def make_report():
    return TAJ(TAJConfig.hybrid_unbounded()).analyze_sources([APP]).report


def test_sarif_structure():
    log = to_sarif(make_report(), default_rules())
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-taj"
    assert len(run["results"]) == 1


def test_sarif_result_fields():
    log = to_sarif(make_report(), default_rules())
    result = log["runs"][0]["results"][0]
    assert result["ruleId"] == "XSS"
    assert result["level"] == "error"
    assert "PrintWriter.println" in result["message"]["text"]
    related = result["relatedLocations"]
    labels = [loc["message"]["text"] for loc in related]
    assert any("source" in label for label in labels)
    assert any("LCP" in label for label in labels)


def test_sarif_rules_include_defaults():
    log = to_sarif(make_report(), default_rules())
    ids = {r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]}
    assert {"XSS", "SQLI", "MALICIOUS_FILE", "INFO_LEAK"} <= ids


def test_render_sarif_is_valid_json():
    text = render_sarif(make_report(), default_rules())
    payload = json.loads(text)
    assert payload["runs"][0]["results"]


def test_empty_report():
    from repro.reporting import Report
    log = to_sarif(Report())
    assert log["runs"][0]["results"] == []


def test_cli_sarif_flag(tmp_path, capsys):
    from repro.cli import main
    path = tmp_path / "app.jlang"
    path.write_text(APP)
    main(["--sarif", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    invocation = payload["runs"][0]["invocations"][0]
    assert invocation == {"executionSuccessful": True,
                          "properties": {"completeness": "complete"}}


def test_sarif_without_report_is_empty_and_labelled():
    log = to_sarif(None, default_rules(), completeness="partial-deadline")
    run = log["runs"][0]
    assert run["results"] == []
    assert run["invocations"] == [{
        "executionSuccessful": False,
        "properties": {"completeness": "partial-deadline"}}]


def test_cli_sarif_on_run_cut_short_before_reporting(tmp_path, capsys):
    """A deadline that expires before reporting leaves no report; the
    SARIF log is still valid, has zero results, and says the run was
    partial, so it does not read as a clean one."""
    from repro.cli import main
    path = tmp_path / "app.jlang"
    path.write_text(APP)
    code = main(["--sarif", "--deadline", "0.000001", str(path)])
    captured = capsys.readouterr()
    assert code == 1, "a partial run exits 1"
    run = json.loads(captured.out)["runs"][0]
    assert run["results"] == []
    assert run["invocations"][0]["executionSuccessful"] is False
    assert run["invocations"][0]["properties"]["completeness"] == \
        "partial-deadline"


@pytest.mark.parametrize("seam,code,completeness", [
    ("modeling.pass", 2, "failed"),
    ("pointer.solve", 2, "failed"),
    ("sdg.build", 2, "failed"),
    ("reporting.build", 1, "partial-fault"),
])
def test_cli_sarif_on_fault_before_reporting(seam, code, completeness,
                                             tmp_path, capsys):
    """A fault at any seam before the report is built still yields a
    valid, empty SARIF log that names the run's completeness."""
    from repro.cli import main
    path = tmp_path / "app.jlang"
    path.write_text(APP)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([{"seam": seam, "action": "raise"}]))
    assert main(["--sarif", "--fault-plan", str(plan), str(path)]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    run = json.loads(captured.out)["runs"][0]
    assert run["results"] == []
    assert run["invocations"] == [{
        "executionSuccessful": False,
        "properties": {"completeness": completeness}}]
