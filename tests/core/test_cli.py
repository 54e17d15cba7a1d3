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


def test_progress_flag_is_rejected(app_file, capsys):
    """The live heartbeat is gone: --progress is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["--progress", app_file])
    assert exc.value.code == 2
    assert "unrecognized arguments: --progress" in capsys.readouterr().err


def test_profiling_keeps_the_config_fingerprint(app_file, tmp_path,
                                                capsys):
    """The profiler is measurement, not configuration: a profiled
    run's ledger record compares with unprofiled runs of its config."""
    ledger = tmp_path / "ledger.jsonl"
    profile = tmp_path / "profile.txt"
    assert main(["--ledger", str(ledger), app_file]) == 1
    assert main(["--profile", str(profile), "--ledger", str(ledger),
                 app_file]) == 1
    plain, profiled = [json.loads(line)
                       for line in ledger.read_text().splitlines()]
    assert plain["config"] == profiled["config"]
    assert profile.exists()


def test_profile_interval_reaches_the_bundle_profiler(app_file, tmp_path,
                                                     capsys):
    profile = tmp_path / "profile.txt"
    assert main(["--json", "--profile", str(profile),
                 "--profile-interval", "0.002", app_file]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["profile"]["interval_seconds"] == 0.002
    assert profile.exists()


@pytest.mark.parametrize("strategy", ["hybrid", "cs", "ci"])
def test_summary_cache_rejects_another_strategy(strategy, app_file,
                                                tmp_path, capsys):
    """--summary-cache runs the summary engine, so pairing it with any
    other --strategy is a usage error, not a silently ignored flag."""
    cache = tmp_path / "cache"
    code = main(["--strategy", strategy, "--summary-cache", str(cache),
                 app_file])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"--strategy {strategy}" in captured.err
    assert not cache.exists()


@pytest.mark.parametrize("argv,name", [
    (["--strategy", "ci"], "hybrid-optimized+ci"),
    (["--config", "unbounded", "--strategy", "cs"], "hybrid-unbounded+cs"),
    (["--summary-cache", "{cache}"], "hybrid-optimized+summary"),
    (["--strategy", "summary", "--summary-cache", "{cache}"],
     "hybrid-optimized+summary"),
    (["--strategy", "hybrid"], "hybrid-optimized"),
    (["--config", "summary", "--summary-cache", "{cache}"], "summary"),
    (["--config", "ci", "--strategy", "ci"], "ci"),
], ids=["strategy", "other-preset", "cache", "cache-and-strategy",
        "same-strategy", "summary-preset", "ci-preset"])
def test_run_is_named_after_the_engine_that_ran(argv, name, app_file,
                                               tmp_path, capsys):
    """A strategy override changes the run's name everywhere it is
    printed or recorded: text title, JSON "config" and the ledger."""
    argv = [arg.format(cache=tmp_path / "cache") for arg in argv]
    ledger = tmp_path / "ledger.jsonl"
    assert main(argv + ["--ledger", str(ledger), app_file]) == 1
    assert f"TAJ report ({name})" in capsys.readouterr().out
    assert main(argv + ["--json", app_file]) == 1
    assert json.loads(capsys.readouterr().out)["config"] == name
    (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert record["config"]["name"] == name


def test_strategy_override_runs_that_engine(tmp_path, capsys):
    """On the Figure-1 program CI's context conflation reports more
    issues than hybrid: the override really switches the slicer."""
    from repro.bench.micro import MOTIVATING
    path = tmp_path / "motivating.jlang"
    path.write_text(MOTIVATING)
    counts = {}
    for argv in ([], ["--strategy", "ci"]):
        main(argv + ["--config", "unbounded", "--json", str(path)])
        counts[tuple(argv)] = len(json.loads(
            capsys.readouterr().out)["issues"])
    assert counts[("--strategy", "ci")] > counts[()]


@pytest.mark.parametrize("argv", [
    ["--max-cg-nodes", "-3"],
    ["--flow-length", "-1"],
    ["--confirm", "--confirm-fuel", "-5"],
    ["--deadline", "-1"],
    ["--profile", "{profile}", "--profile-interval", "0"],
], ids=["max-cg-nodes", "flow-length", "confirm-fuel", "deadline",
        "profile-interval"])
def test_out_of_range_numbers_are_rejected(argv, tmp_path, capsys):
    """A negative bound (or a non-positive sampling interval) is a
    usage error: exit 2 and one line naming the flag, before any
    analysis, instead of a clean result, a degraded one or a
    traceback."""
    from repro.bench.micro import MOTIVATING
    path = tmp_path / "motivating.jlang"
    path.write_text(MOTIVATING)
    argv = [arg.format(profile=tmp_path / "profile.txt") for arg in argv]
    code = main(argv + [str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(argv[-2])
    assert not (tmp_path / "profile.txt").exists()
