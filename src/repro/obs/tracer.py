"""Hierarchical span tracer: the timing backbone of the pipeline.

A *span* is a named, attributed interval on the monotonic clock
(``time.perf_counter``).  Spans nest: entering a span while another is
open makes it a child, so one analysis run yields a forest whose roots
are the pipeline phases (``phase.modeling``, ``phase.pointer_analysis``,
``phase.sdg``, ``phase.taint``, ``phase.reporting`` — see
``docs/observability.md`` for the naming conventions).

Usage::

    tracer = Tracer()
    with tracer.span("phase.modeling", sources=3) as span:
        ...
        span.set(classes=12)

Hot paths that measure time themselves (the pointer solver's
alternating sub-phases) report aggregates through
:meth:`Tracer.add_completed`, which records a pre-timed span without a
context manager.
"""

from __future__ import annotations

import time
import weakref
from typing import Dict, Iterator, List, Optional, Tuple


class Span:
    """One named interval; a node in the span tree.

    The tree holds its spans from the top down only: ``parent`` is a
    weak reference, and a span lets go of its tracer once it closes, so
    a finished tree is freed by reference counting.
    """

    __slots__ = ("name", "start", "end", "attrs", "children", "_parent",
                 "_tracer", "__weakref__")

    def __init__(self, name: str, tracer: Optional["Tracer"],
                 attrs: Optional[Dict] = None) -> None:
        self.name = name
        self.start = 0.0
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self._parent: Optional[weakref.ReferenceType] = None
        self._tracer = tracer

    @property
    def parent(self) -> Optional["Span"]:
        """The enclosing span (``None`` for a root)."""
        return self._parent() if self._parent is not None else None

    @property
    def duration(self) -> float:
        """Seconds from start to end (to *now* while still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return max(0.0, end - self.start)

    def set(self, **attrs: object) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        if exc is not None:
            self.attrs.setdefault("error", repr(exc))
        tracer, self._tracer = self._tracer, None
        if tracer is not None:
            tracer._close(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration * 1e3:.3f}ms" if self.end is not None \
            else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class Tracer:
    """Records a forest of :class:`Span` objects."""

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        """A new span; time starts at ``__enter__``."""
        return Span(name, self, attrs)

    def add_completed(self, name: str, start: float, duration: float,
                      attrs: Optional[Dict] = None) -> Span:
        """Record an already-measured interval as a child of the current
        span (a root if none is open).  For aggregates measured inline
        by hot loops, e.g. the solver's constraint-adding/solving
        alternation."""
        span = Span(name, None, attrs)
        span.start = start
        span.end = start + max(0.0, duration)
        self._attach(span)
        return span

    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    # -- reading -----------------------------------------------------------

    def iter_spans(self) -> Iterator[Tuple[Span, int]]:
        """Every recorded span with its depth, pre-order."""
        stack: List[Tuple[Span, int]] = [(s, 0) for s in
                                         reversed(self.roots)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(span.children):
                stack.append((child, depth + 1))

    def find(self, name: str) -> List[Span]:
        """All spans with the given name, pre-order."""
        return [span for span, _ in self.iter_spans() if span.name == name]

    def phase_durations(self) -> Dict[str, float]:
        """``phase.*`` root name (sans prefix) -> total seconds."""
        out: Dict[str, float] = {}
        for root in self.roots:
            if root.name.startswith("phase."):
                key = root.name[len("phase."):]
                out[key] = out.get(key, 0.0) + root.duration
        return out

    # -- span tree maintenance --------------------------------------------

    def _open(self, span: Span) -> None:
        self._attach(span)
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        # Tolerate out-of-order exits (an exception unwinding through
        # several open spans): pop through the target.
        while self._stack:
            top = self._stack.pop()
            top._tracer = None
            if top is span:
                break
            if top.end is None:
                top.end = span.end

    def _attach(self, span: Span) -> None:
        parent = self.current()
        if parent is not None:
            span._parent = weakref.ref(parent)
            parent.children.append(span)
        else:
            self.roots.append(span)
