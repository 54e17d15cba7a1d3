"""CLI behaviour on broken inputs: structured diagnostics, no tracebacks.

The corpus covers all three frontend failure stages — lexing, parsing,
and lowering — plus unreadable input files, the ``--keep-going`` /
``--deadline`` resilience flags and the 0/1/2 exit-code contract.
"""

import json

import pytest

from repro.cli import main

GOOD = """
class S extends HttpServlet {
  void doGet(HttpServletRequest req, HttpServletResponse resp) {
    resp.getWriter().println(req.getParameter("p"));
  }
}
"""

# One broken source per frontend stage, plus a non-decimal digit that
# str.isdigit() accepts but int() rejects.
CORPUS = {
    "lex": 'class L { void m() { String s = "unterminated; } }',
    "lex-digit": "class D { void m() { int x = ²; } }",
    "parse": "class P { void m( { } }",
    "lower": "class W { void m() { break; } }",
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("stage", sorted(CORPUS))
def test_broken_source_exits_two_with_diagnostic(stage, tmp_path,
                                                 capsys):
    path = write(tmp_path, f"{stage}.jlang", CORPUS[stage])
    code = main([path])
    captured = capsys.readouterr()
    assert code == 2
    assert "[frontend]" in captured.err
    assert path in captured.err, "diagnostic names the offending file"
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("stage", sorted(CORPUS))
def test_keep_going_quarantines_and_analyzes_the_rest(stage, tmp_path,
                                                      capsys):
    broken = write(tmp_path, f"{stage}.jlang", CORPUS[stage])
    good = write(tmp_path, "good.jlang", GOOD)
    code = main(["--keep-going", broken, good])
    captured = capsys.readouterr()
    assert code == 1, "partial run with issues exits 1, not 2"
    assert "XSS" in captured.out, "the healthy file is still analyzed"
    assert broken in captured.err and "[frontend]" in captured.err
    assert "internal-error" not in captured.err
    assert "Traceback" not in captured.err + captured.out


# Unreadable inputs: each is a usage error (exit 2, one stderr line),
# never a traceback or the "issues found" exit code 1.
UNREADABLE = {
    "missing-source": lambda tmp, good: [str(tmp / "absent.jlang")],
    "non-utf8-source": lambda tmp, good: [
        write_bytes(tmp, "latin1.jlang",
                    GOOD.replace("p", "\u00e9").encode("latin-1"))],
    "missing-descriptor": lambda tmp, good: [
        "--descriptor", str(tmp / "absent.json"), good],
    "non-json-descriptor": lambda tmp, good: [
        "--descriptor", write(tmp, "ejb.json", "{not json"), good],
    "non-object-descriptor": lambda tmp, good: [
        "--descriptor", write(tmp, "ejb.json", "[1, 2]"), good],
}


def write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_exits_two(case, tmp_path, capsys):
    good = write(tmp_path, "good.jlang", GOOD)
    code = main(UNREADABLE[case](tmp_path, good))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("unreadable input: ")
    assert captured.err.count("\n") == 1, "one stderr line"
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_keep_going_json_payload_carries_resilience_record(tmp_path,
                                                           capsys):
    broken = write(tmp_path, "broken.jlang", CORPUS["parse"])
    good = write(tmp_path, "good.jlang", GOOD)
    code = main(["--keep-going", "--json", broken, good])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 1
    assert payload["completeness"] == "partial-fault"
    assert payload["diagnostics"], "quarantine leaves a diagnostic"
    assert payload["diagnostics"][0]["phase"] == "frontend"
    assert payload["issues"][0]["rule"] == "XSS"


def test_deadline_flag_on_healthy_run(tmp_path, capsys):
    good = write(tmp_path, "good.jlang", GOOD)
    code = main(["--deadline", "3600", good])
    out = capsys.readouterr().out
    assert code == 1
    assert "XSS" in out


def test_expired_deadline_exits_one_as_partial(tmp_path, capsys):
    good = write(tmp_path, "good.jlang", GOOD)
    code = main(["--deadline", "0", good])
    captured = capsys.readouterr()
    assert code == 1, "a partial (deadline) run is not a failure"
    assert "partial-deadline" in captured.out
    assert "Traceback" not in captured.err + captured.out


# -- --fault-plan (docs/robustness.md) ----------------------------------------

def test_fault_plan_malformed_file_exits_two(tmp_path, capsys):
    good = write(tmp_path, "good.jlang", GOOD)
    plan = write(tmp_path, "plan.json", "{not json")
    code = main(["--fault-plan", plan, good])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid fault plan" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_fault_plan_missing_file_exits_two(tmp_path, capsys):
    good = write(tmp_path, "good.jlang", GOOD)
    code = main(["--fault-plan", str(tmp_path / "absent.json"), good])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid fault plan" in captured.err


def test_fault_plan_unknown_action_exits_two(tmp_path, capsys):
    good = write(tmp_path, "good.jlang", GOOD)
    plan = write(tmp_path, "plan.json",
                 json.dumps([{"seam": "pointer.solve",
                              "action": "explode"}]))
    code = main(["--fault-plan", plan, good])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid fault plan" in captured.err


def test_fault_plan_unknown_seam_exits_two(tmp_path, capsys):
    """A misspelled seam would never fire and the run would pass as
    ``complete``; the plan is rejected instead."""
    good = write(tmp_path, "good.jlang", GOOD)
    plan = write(tmp_path, "plan.json",
                 json.dumps([{"seam": "pointer.slove",
                              "action": "raise"}]))
    code = main(["--fault-plan", plan, good])
    captured = capsys.readouterr()
    assert code == 2
    assert "invalid fault plan" in captured.err
    assert "pointer.slove" in captured.err

