"""Sampling profiler: data model, backends, phase attribution, and the
pipeline-level contracts (no report drift, self-time within spans, a
raising run still stops the profiler)."""

import ast
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest

import repro
from repro.bench.securibench import CASES
from repro.core import TAJ, TAJConfig
from repro.core import taj as taj_module
from repro.lang.errors import SourceError
from repro.modeling import prepare
from repro.obs import Observability
from repro.obs.profile import (DEFAULT_PHASE, HOT_LOOPS, ProfileData,
                               SamplingProfiler, write_collapsed)
from repro.obs.tracer import Tracer
from repro.reporting import render_text


def _burn_cpu(seconds: float) -> int:
    """Busy loop measured in CPU time (what ITIMER_PROF advances on)."""
    deadline = time.process_time() + seconds
    x = 0
    while time.process_time() < deadline:
        x += 1
    return x


# -- ProfileData --------------------------------------------------------------

def test_profile_data_accumulates_and_reads():
    data = ProfileData(interval=0.01)
    data.add("taint", ("engine.run", "hybrid.slice_rule"), count=3)
    data.add("taint", ("engine.run",), count=1)
    data.add("pointer_analysis", ("solver.solve",), count=2)
    assert data.samples == 6
    assert data.phase_self_seconds() == {"pointer_analysis": 0.02,
                                         "taint": 0.04}
    # Leaf attribution: slice_rule is the on-CPU frame for 3 samples.
    assert data.function_self_seconds()["hybrid.slice_rule"] == 0.03
    assert data.hot_loop_seconds() == {"taint.slice_rule": 0.03}


def test_collapsed_lines_format_and_write(tmp_path):
    data = ProfileData(interval=0.01)
    data.add("taint", ("engine.run", "hybrid.slice_rule"), count=3)
    data.add("modeling", (), count=1)
    lines = data.collapsed_lines()
    assert lines == ["modeling 1",
                     "taint;engine.run;hybrid.slice_rule 3"]
    path = tmp_path / "profile.collapsed"
    assert write_collapsed(data, str(path)) == 2
    assert path.read_text().splitlines() == lines


def test_payload_shape():
    data = ProfileData(interval=0.01)
    data.add("taint", ("engine.run",), count=2)
    payload = data.payload()
    assert set(payload) == {"interval_seconds", "samples",
                            "phase_self_seconds", "hot_loop_seconds",
                            "top_functions"}
    assert payload["samples"] == 2
    assert payload["top_functions"] == {"engine.run": 0.02}


def test_hot_loop_markers_cover_solver_and_tabulation():
    assert HOT_LOOPS["_solve_constraints"].startswith("pointer.")
    assert HOT_LOOPS["_process"] == "sdg.tabulation"
    assert HOT_LOOPS["slice_rule"] == "taint.slice_rule"


def test_tabulation_samples_land_in_the_tabulation_hot_loop():
    """The tabulator's worklist loop runs inside a slicer's
    slice_rule; its samples belong to the innermost marker."""
    data = ProfileData(interval=0.01)
    data.add("taint", ("engine.run", "hybrid.slice_rule",
                       "tabulation.run", "tabulation._process",
                       "tabulation._process_call_use"), count=2)
    data.add("taint", ("engine.run", "hybrid.slice_rule"), count=1)
    assert data.hot_loop_seconds() == {"sdg.tabulation": 0.02,
                                       "taint.slice_rule": 0.01}


def test_every_hot_loop_marker_names_a_defined_function():
    """A marker matches frames by function name, so one that names no
    function under src/repro never reports anything."""
    root = pathlib.Path(repro.__file__).parent
    defined = {node.name for path in root.rglob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef,
                                    ast.AsyncFunctionDef))}
    assert sorted(set(HOT_LOOPS) - defined) == []


# -- SamplingProfiler ---------------------------------------------------------

def _profile_busy_loop():
    profiler = SamplingProfiler(interval=0.002)
    profiler.start()
    try:
        _burn_cpu(0.08)
    finally:
        data = profiler.stop()
    return profiler, data


def _in_thread(fn):
    """``fn()`` run on a fresh (non-main) thread."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive() and out
    return out[0]


@pytest.mark.parametrize("backend", ["signal", "thread"])
def test_profiler_samples_busy_loop(backend):
    # The backend follows the creating thread: signal on the main
    # thread, a sampling thread anywhere else.
    profiler, data = (_profile_busy_loop() if backend == "signal"
                      else _in_thread(_profile_busy_loop))
    assert profiler.backend == backend
    assert not profiler.running
    assert data.samples > 0
    # Without a tracer every sample lands under the fixed phase.
    assert set(data.phase_self_seconds()) == {DEFAULT_PHASE}
    leaves = "".join(data.function_self_seconds())
    assert "_burn_cpu" in leaves


def test_profiler_phase_attribution_follows_tracer_spans():
    tracer = Tracer()
    profiler = SamplingProfiler(interval=0.002, tracer=tracer)
    profiler.start()
    try:
        with tracer.span("phase.pointer_analysis"):
            _burn_cpu(0.05)
        with tracer.span("phase.taint"):
            with tracer.span("taint.rule"):   # nested: root names phase
                _burn_cpu(0.05)
    finally:
        data = profiler.stop()
    phases = data.phase_self_seconds()
    assert set(phases) <= {"pointer_analysis", "taint", DEFAULT_PHASE}
    assert phases.get("pointer_analysis", 0.0) > 0.0
    assert phases.get("taint", 0.0) > 0.0


def test_profiler_context_manager():
    with SamplingProfiler(interval=0.002) as profiler:
        assert profiler.running
        time.sleep(0.02)
    assert not profiler.running


def test_profiler_rejects_bad_arguments():
    with pytest.raises(ValueError):
        SamplingProfiler(interval=0.0)


# -- pipeline contracts -------------------------------------------------------

def _corpus(count: int):
    return [src for group in CASES.values()
            for src, _truth in group.values()][:count]


def _render(result):
    return render_text(result.report, title="t")


def test_profiling_does_not_change_the_report():
    """The differential contract: measurement must never move the
    analysis — byte-identical reports with the profiler off vs on."""
    sources = _corpus(6)
    plain = TAJ(TAJConfig.hybrid_optimized()).analyze_sources(sources)
    obs = Observability(profile=True)
    measured = TAJ(TAJConfig.hybrid_optimized(),
                   obs=obs).analyze_sources(sources)
    assert _render(plain) == _render(measured)
    assert [f.sort_key() for f in plain.flows] == \
        [f.sort_key() for f in measured.flows]
    assert plain.profile is None
    assert measured.profile is not None


def test_bundle_profiler_is_stopped_and_carries_its_interval():
    obs = Observability(profile=SamplingProfiler(interval=0.002))
    result = TAJ(TAJConfig.hybrid_optimized(),
                 obs=obs).analyze_sources(_corpus(3))
    assert obs.profiler.tracer is obs.tracer
    assert not obs.profiler.running        # stopped when the run ends
    assert result.profile is not None
    assert result.profile["interval_seconds"] == 0.002


BROKEN = "class A { void f( }\n"


def test_a_raising_run_stops_the_profiler_and_tracemalloc():
    assert not tracemalloc.is_tracing()
    obs = Observability(memory=True,
                        profile=SamplingProfiler(interval=0.002))
    with pytest.raises(SourceError):
        TAJ(TAJConfig.hybrid_optimized(), obs=obs) \
            .analyze_sources([BROKEN])
    assert not obs.profiler.running
    assert not tracemalloc.is_tracing()


def test_analyze_prepared_runs_and_stops_the_bundle_profiler():
    prepared = prepare(_corpus(3))
    obs = Observability(profile=SamplingProfiler(interval=0.002))
    result = TAJ(TAJConfig.hybrid_optimized(),
                 obs=obs).analyze_prepared(prepared)
    assert not obs.profiler.running
    assert result.profile is not None
    assert result.profile["interval_seconds"] == 0.002


def test_a_raising_analyze_prepared_stops_the_profiler_and_tracemalloc(
        monkeypatch):
    prepared = prepare(_corpus(1))

    def broken_analysis(*args, **kwargs):
        raise RuntimeError("pointer analysis failed")

    monkeypatch.setattr(taj_module, "PointerAnalysis", broken_analysis)
    assert not tracemalloc.is_tracing()
    obs = Observability(memory=True,
                        profile=SamplingProfiler(interval=0.002))
    with pytest.raises(RuntimeError, match="pointer analysis failed"):
        TAJ(TAJConfig.hybrid_optimized(), obs=obs) \
            .analyze_prepared(prepared)
    assert not obs.profiler.running
    assert not tracemalloc.is_tracing()


def test_profiled_cli_run_of_a_broken_source_exits_2(tmp_path):
    """A profiler left running after the run raises would kill the
    process with SIGPROF instead of letting it exit 2."""
    broken = tmp_path / "b.jlang"
    broken.write_text(BROKEN)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--profile",
         str(tmp_path / "p.txt"), str(broken)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "ParseError" in proc.stderr


def test_phase_self_time_stays_within_span_durations():
    """Acceptance: phase self-time totals stay within the span-reported
    phase durations, up to sampling granularity."""
    obs = Observability(profile=SamplingProfiler(interval=0.001))
    result = TAJ(TAJConfig.hybrid_optimized(),
                 obs=obs).analyze_sources(_corpus(10))
    assert result.profile is not None
    spans = {
        "modeling": result.times.modeling,
        "pointer_analysis": result.times.pointer_analysis,
        "sdg": result.times.sdg,
        "taint": result.times.taint,
        "reporting": result.times.reporting,
        "confirm": result.times.confirm,
    }
    # Sampling granularity slack: a few intervals per phase (signal
    # backend samples CPU time, which never exceeds wall).
    slack = 0.001 * 10
    for phase, seconds in result.profile["phase_self_seconds"].items():
        assert phase in spans, f"unknown profiled phase {phase!r}"
        assert seconds <= spans[phase] + slack, \
            f"{phase}: self-time {seconds} exceeds span {spans[phase]}"

