"""CLI tests."""

import json

import pytest

from repro.cli import main

APP = """
class Hello extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("name"));
  }
}
"""

CLEAN = """
class Clean extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println("static");
  }
}
"""


@pytest.fixture
def app_file(tmp_path):
    path = tmp_path / "app.jlang"
    path.write_text(APP)
    return str(path)


def test_reports_issue_and_exits_nonzero(app_file, capsys):
    code = main([app_file])
    out = capsys.readouterr().out
    assert code == 1
    assert "XSS" in out and "html-encode-output" in out


def test_clean_app_exits_zero(tmp_path, capsys):
    path = tmp_path / "clean.jlang"
    path.write_text(CLEAN)
    assert main([str(path)]) == 0
    assert "No tainted flows" in capsys.readouterr().out


def test_json_output(app_file, capsys):
    code = main(["--json", app_file])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["config"] == "hybrid-optimized"
    assert payload["issues"][0]["rule"] == "XSS"
    assert payload["call_graph_nodes"] > 0


def test_config_selection(app_file, capsys):
    main(["--config", "ci", "--json", app_file])
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"] == "ci"


def test_budget_overrides(app_file, capsys):
    code = main(["--config", "unbounded", "--flow-length", "0",
                 "--json", app_file])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["issues"] == []


def test_extended_rules(tmp_path, capsys):
    path = tmp_path / "redir.jlang"
    path.write_text("""
class R extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.sendRedirect(req.getParameter("next"));
  }
}
""")
    main(["--rules", "extended", str(path)])
    assert "OPEN_REDIRECT" in capsys.readouterr().out


def test_descriptor_file(tmp_path, capsys):
    source = tmp_path / "ejb.jlang"
    source.write_text("""
class Bean { String echo(String v) { return v; } }
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    InitialContext ctx = new InitialContext();
    Object home = PortableRemoteObject.narrow(
        ctx.lookup("ejb/B"), "BeanHome");
    Bean bean = (Bean) home.create();
    resp.getWriter().println(bean.echo(req.getParameter("p")));
  }
}
""")
    descriptor = tmp_path / "dd.json"
    descriptor.write_text(json.dumps({"ejb/B": "Bean"}))
    code = main(["--descriptor", str(descriptor), str(source)])
    assert code == 1
    assert "XSS" in capsys.readouterr().out


def test_dynamic_flag(app_file, capsys):
    main(["--dynamic", app_file])
    out = capsys.readouterr().out
    assert "dynamic execution" in out
    assert "src:" in out


def test_trace_and_metrics_files(app_file, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    jsonl = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    code = main(["--trace", str(trace), "--trace-jsonl", str(jsonl),
                 "--metrics", str(metrics), app_file])
    capsys.readouterr()
    assert code == 1

    payload = json.loads(trace.read_text())
    names = {event["name"] for event in payload["traceEvents"]}
    assert {"phase.modeling", "phase.pointer_analysis", "phase.sdg",
            "phase.taint", "phase.reporting"} <= names
    assert all(event["ph"] == "X" for event in payload["traceEvents"])

    rows = [json.loads(line) for line in
            jsonl.read_text().splitlines()]
    assert len(rows) == len(payload["traceEvents"])

    snapshot = json.loads(metrics.read_text())
    assert snapshot["counters"]["pointer.propagations"] > 0
    assert snapshot["gauges"]["memory.peak_bytes"] > 0
    assert snapshot["timers"]["pointer.constraint_solving"]["count"] == 1


def test_audit_file(app_file, tmp_path, capsys):
    audit = tmp_path / "audit.json"
    main(["--audit", str(audit), app_file])
    capsys.readouterr()
    payload = json.loads(audit.read_text())
    assert payload["flows"], "the XSS flow must leave a witness"
    witness = payload["flows"][0]
    assert witness["rule"] == "XSS"
    assert witness["grouping"]["representative"] is True
    assert any(r["rule"] == "XSS" and r["seeds"] > 0
               for r in payload["rules_consulted"])


def test_stats_prints_metrics_table(app_file, capsys):
    main(["--stats", app_file])
    out = capsys.readouterr().out
    assert "analysis metrics" in out
    assert "pointer.propagations" in out
    assert "-- timers (seconds) --" in out


def test_multiple_files(tmp_path, capsys):
    a = tmp_path / "a.jlang"
    a.write_text("class Util { static String id(String v) "
                 "{ return v; } }")
    b = tmp_path / "b.jlang"
    b.write_text("""
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(Util.id(req.getParameter("p")));
  }
}
""")
    assert main([str(a), str(b)]) == 1



@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_repeated_runs_print_identical_reports(fmt, app_file, capsys):
    """The report is a function of the input: two runs print the same
    bytes (bar the JSON payload's wall-clock seconds)."""
    outputs = []
    for _ in range(2):
        assert main(fmt + [app_file]) == 1
        out = capsys.readouterr().out
        if fmt:
            payload = json.loads(out)
            payload.pop("seconds")
            out = payload
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", [
    "--jobs", "--shard-grain", "--checkpoint", "--max-shard-retries",
    "--max-pool-restarts", "--hang-seconds"])
def test_removed_sweep_flags_are_rejected(flag, app_file, capsys):
    """The rule sweep is serial and has no pool knobs: a script still
    passing one gets a usage error, not a silently ignored option."""
    with pytest.raises(SystemExit) as exc:
        main([flag, "2", app_file])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
