"""Sampling profiler: data model, backends, phase attribution, and the
pipeline-level contracts (no report drift, self-time within spans)."""

import threading
import time

import pytest

from repro.bench.securibench import CASES
from repro.core import TAJ, TAJConfig
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
    assert HOT_LOOPS["tabulate"] == "sdg.tabulation"
    assert HOT_LOOPS["slice_rule"] == "taint.slice_rule"


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


def test_profiling_and_progress_do_not_change_the_report():
    """The differential contract: measurement must never move the
    analysis — byte-identical reports with everything off vs on."""
    sources = _corpus(6)
    plain = TAJ(TAJConfig.hybrid_optimized()).analyze_sources(sources)
    obs = Observability(profile=True, progress=True)
    measured = TAJ(TAJConfig.hybrid_optimized().with_profile(),
                   obs=obs).analyze_sources(sources)
    assert _render(plain) == _render(measured)
    assert [f.sort_key() for f in plain.flows] == \
        [f.sort_key() for f in measured.flows]
    assert plain.profile is None
    assert measured.profile is not None


def test_config_profile_knob_installs_profiler_on_enabled_bundle():
    obs = Observability()
    result = TAJ(TAJConfig.hybrid_optimized().with_profile(
        interval=0.002), obs=obs).analyze_sources(_corpus(3))
    assert obs.profiler is not None
    assert not obs.profiler.running        # stopped by _finalize
    assert result.profile is not None
    assert result.profile["interval_seconds"] == 0.002
    # Disabled bundle: the knob is ignored (no measurement channel).
    result = TAJ(TAJConfig.hybrid_optimized().with_profile(),
                 obs=Observability.disabled()) \
        .analyze_sources(_corpus(3))
    assert result.profile is None


def test_phase_self_time_stays_within_span_durations():
    """Acceptance: phase self-time totals stay within the span-reported
    phase durations, up to sampling granularity."""
    config = TAJConfig.hybrid_optimized().with_profile(interval=0.001)
    obs = Observability()
    result = TAJ(config, obs=obs).analyze_sources(_corpus(10))
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

