"""Span tracer: nesting, attributes, lifetime."""

import gc
import weakref

import pytest

from repro.obs import Tracer


def test_nested_spans_form_a_tree():
    tracer = Tracer()
    with tracer.span("phase.outer"):
        with tracer.span("inner.a"):
            pass
        with tracer.span("inner.b"):
            with tracer.span("inner.b.leaf"):
                pass
    assert len(tracer.roots) == 1
    outer = tracer.roots[0]
    assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
    assert outer.children[1].children[0].name == "inner.b.leaf"
    assert outer.children[1].children[0].parent is outer.children[1]


def test_pre_order_iteration_with_depths():
    tracer = Tracer()
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    with tracer.span("c"):
        pass
    walk = [(span.name, depth) for span, depth in tracer.iter_spans()]
    assert walk == [("a", 0), ("b", 1), ("c", 0)]


def test_attributes_at_open_and_via_set():
    tracer = Tracer()
    with tracer.span("phase.pointer_analysis", budget=100) as span:
        span.set(cg_nodes=7, truncated=False)
    assert span.attrs == {"budget": 100, "cg_nodes": 7,
                          "truncated": False}


def test_durations_are_monotonic_and_contained():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.roots[0], tracer.roots[0].children[0]
    assert outer.end is not None and inner.end is not None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert outer.duration >= inner.duration >= 0.0


def test_exception_closes_span_and_records_error():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("phase.taint"):
            raise ValueError("budget exhausted")
    span = tracer.roots[0]
    assert span.end is not None
    assert "budget exhausted" in span.attrs["error"]
    assert tracer.current() is None


def test_exception_unwinding_closes_intermediate_spans():
    tracer = Tracer()
    with tracer.span("root") as root:
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        # Simulate the outer handler exiting while inner is still open.
        outer.__exit__(None, None, None)
        assert inner.end is not None
        assert tracer.current() is root
        # A late exit of the unwound span leaves the open spans alone.
        inner.__exit__(None, None, None)
        assert tracer.current() is root
    assert tracer.current() is None


def test_finished_tree_is_freed_by_reference_counting():
    enabled = gc.isenabled()
    gc.disable()
    try:
        tracer = Tracer()
        with tracer.span("phase.outer"):
            tracer.add_completed("pointer.constraint_adding", 1.0, 0.5)
            unwound = tracer.span("inner.unwound")
            unwound.__enter__()
            with tracer.span("inner.leaf") as leaf:
                pass
        assert leaf.parent is unwound
        refs = [weakref.ref(obj) for obj in (tracer, leaf, unwound)]
        del tracer, leaf, unwound
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def test_span_parent_is_read_only():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner.parent is outer and outer.parent is None
    with pytest.raises(AttributeError):
        inner.parent = None
    assert inner.parent is outer


def test_kept_span_holds_neither_its_tracer_nor_its_parent():
    enabled = gc.isenabled()
    gc.disable()
    try:
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                pass
        tracer_ref = weakref.ref(tracer)
        del tracer
        # The tree is held from the top down only: a span kept past its
        # run lets the tracer and the enclosing span go.
        assert tracer_ref() is None
        assert inner.parent is None
        assert inner.end is not None
    finally:
        if enabled:
            gc.enable()


def test_add_completed_attaches_under_current_span():
    tracer = Tracer()
    with tracer.span("phase.pointer_analysis"):
        tracer.add_completed("pointer.constraint_adding", 10.0, 0.5,
                             {"rounds": 3})
        tracer.add_completed("pointer.constraint_solving", 10.5, 1.5)
    root = tracer.roots[0]
    names = [c.name for c in root.children]
    assert names == ["pointer.constraint_adding",
                     "pointer.constraint_solving"]
    adding = root.children[0]
    assert adding.start == 10.0 and adding.end == 10.5
    assert adding.attrs == {"rounds": 3}
    assert root.children[1].duration == pytest.approx(1.5)


def test_find_and_phase_durations():
    tracer = Tracer()
    with tracer.span("phase.modeling"):
        with tracer.span("modeling.ssa"):
            pass
    with tracer.span("phase.taint"):
        pass
    assert [s.name for s in tracer.find("modeling.ssa")] \
        == ["modeling.ssa"]
    durations = tracer.phase_durations()
    assert set(durations) == {"modeling", "taint"}
    assert all(v >= 0.0 for v in durations.values())
