"""Metrics registry: counters, gauges, percentiles, null mode."""

import pytest

from repro.obs import MetricsRegistry, percentile
from repro.obs.metrics import NULL_REGISTRY, Histogram


def test_counters_accumulate():
    reg = MetricsRegistry()
    reg.inc("pointer.propagations")
    reg.inc("pointer.propagations", 4)
    assert reg.counter_value("pointer.propagations") == 5
    assert reg.counter_value("missing") == 0


def test_gauges_last_write_and_high_water():
    reg = MetricsRegistry()
    reg.gauge("memory.current_bytes", 100)
    reg.gauge("memory.current_bytes", 40)
    reg.gauge_max("memory.peak_bytes", 100)
    reg.gauge_max("memory.peak_bytes", 40)
    assert reg.gauge_value("memory.current_bytes") == 40
    assert reg.gauge_value("memory.peak_bytes") == 100
    assert reg.gauge_value("missing") is None


def test_nearest_rank_percentiles():
    data = sorted(float(v) for v in range(1, 101))
    assert percentile(data, 50.0) == 50.0
    assert percentile(data, 95.0) == 95.0
    assert percentile(data, 0.0) == 1.0
    assert percentile(data, 100.0) == 100.0
    assert percentile([7.0], 50.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_timer_summary_shape():
    reg = MetricsRegistry()
    for seconds in (0.1, 0.2, 0.3, 0.4, 1.0):
        reg.record_time("pointer.constraint_solving", seconds)
    summary = reg.timer_summary("pointer.constraint_solving")
    assert summary["count"] == 5
    assert summary["total"] == pytest.approx(2.0)
    assert summary["p50"] == pytest.approx(0.3)
    assert summary["p95"] == pytest.approx(1.0)
    assert summary["max"] == pytest.approx(1.0)


def test_empty_timer_summary_is_zeroed():
    assert MetricsRegistry().timer_summary("never") == {
        "count": 0, "total": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}


def test_value_histogram_and_bulk_record():
    reg = MetricsRegistry()
    reg.record_value("pointer.pts_set_size", 1)
    reg.record_values("pointer.pts_set_size", [2, 3, 10])
    snap = reg.snapshot()
    hist = snap["histograms"]["pointer.pts_set_size"]
    assert hist["count"] == 4
    assert hist["max"] == 10


def test_merge_counters_with_prefix():
    reg = MetricsRegistry()
    reg.inc("pointer.propagations", 10)
    reg.merge_counters({"propagations": 5, "edges": 2},
                       prefix="pointer.")
    assert reg.counter_value("pointer.propagations") == 15
    assert reg.counter_value("pointer.edges") == 2


def test_snapshot_is_sorted_and_json_shaped():
    import json
    reg = MetricsRegistry()
    reg.inc("b.count")
    reg.inc("a.count")
    reg.gauge("g", 1.5)
    reg.record_time("t", 0.25)
    snap = reg.snapshot()
    assert set(snap) == {"counters", "gauges", "timers", "histograms"}
    assert list(snap["counters"]) == ["a.count", "b.count"]
    json.dumps(snap)  # must be serializable as-is


def test_histogram_summary_unsorted_input():
    h = Histogram()
    for v in (9.0, 1.0, 5.0):
        h.observe(v)
    s = h.summary()
    assert s["p50"] == 5.0 and s["max"] == 9.0


def test_null_registry_is_inert():
    NULL_REGISTRY.inc("x", 5)
    NULL_REGISTRY.gauge("g", 1)
    NULL_REGISTRY.gauge_max("g", 2)
    NULL_REGISTRY.record_time("t", 0.1)
    NULL_REGISTRY.record_value("h", 1)
    NULL_REGISTRY.record_values("h", [1, 2])
    NULL_REGISTRY.merge_counters({"a": 1})
    assert NULL_REGISTRY.counter_value("x") == 0
    assert NULL_REGISTRY.gauge_value("g") is None
    assert NULL_REGISTRY.timer_summary("t")["count"] == 0
    assert NULL_REGISTRY.snapshot() == {}
    assert not NULL_REGISTRY.enabled


# -- percentile edge cases ----------------------------------------------------

def test_percentile_clamps_out_of_range_quantiles():
    data = [1.0, 2.0, 3.0]
    assert percentile(data, -5.0) == 1.0
    assert percentile(data, 0.0) == 1.0
    assert percentile(data, 100.0) == 3.0
    assert percentile(data, 250.0) == 3.0


def test_percentile_small_inputs():
    assert percentile([4.0], 1.0) == 4.0
    assert percentile([4.0], 99.0) == 4.0
    two = [1.0, 9.0]
    assert percentile(two, 50.0) == 1.0   # nearest-rank: ceil(1.0) = 1
    assert percentile(two, 50.1) == 9.0
    assert percentile(two, 95.0) == 9.0
