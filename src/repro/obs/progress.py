"""Live progress heartbeat for multi-minute runs (CLI ``--progress``).

A 1-core analysis of a scaled corpus runs for minutes with no output;
the heartbeat is a daemon thread that prints one status line to stderr
every ``interval`` seconds:

    [taj 12.4s] phase=pointer_analysis worklist=481 cg_nodes=96
    [taj 48.9s] phase=taint rule=XSS rules=3/7

The *phase* comes from the tracer's open-span stack (the outermost
``phase.*`` span); everything after it is a free-form field dict that
pipeline seams update through :meth:`Progress.update` — the pointer
solver publishes its worklist depth per alternation, the taint sweep
its rule progress.  Updates are plain dict writes (GIL-atomic)
at per-alternation/per-rule granularity, so the hot loops stay
untouched.  :class:`NullProgress` is the disabled default: ``update``
is a no-op, nothing is printed, nothing is allocated.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, Optional, TextIO

DEFAULT_INTERVAL = 1.0

# Render order for well-known fields; anything else follows, sorted.
_FIELD_ORDER = ("worklist", "cg_nodes", "rule", "rules", "flows")


class Progress:
    """Mutable run state plus the heartbeat thread that renders it."""

    enabled = True

    def __init__(self, stream: Optional[TextIO] = None,
                 interval: float = DEFAULT_INTERVAL,
                 tracer: Optional[object] = None) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.tracer = tracer
        self.fields: Dict[str, object] = {}
        self.beats = 0
        self._started_at: Optional[float] = None
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- state -------------------------------------------------------------

    def update(self, **fields: object) -> None:
        """Merge fields into the status line (cheap: dict writes)."""
        self.fields.update(fields)

    def clear(self, *names: str) -> None:
        """Drop fields that no longer apply (e.g. the solver's
        worklist once the pointer phase ends)."""
        for name in names:
            self.fields.pop(name, None)

    def current_phase(self) -> Optional[str]:
        tracer = self.tracer
        stack = getattr(tracer, "_stack", None) if tracer else None
        if not stack:
            return None
        name = stack[0].name
        return name[len("phase."):] if name.startswith("phase.") \
            else name

    def render_line(self) -> str:
        elapsed = 0.0 if self._started_at is None \
            else time.perf_counter() - self._started_at
        parts = [f"[taj {elapsed:.1f}s]"]
        phase = self.current_phase()
        if phase:
            parts.append(f"phase={phase}")
        fields = dict(self.fields)
        for name in _FIELD_ORDER:
            if name in fields:
                parts.append(f"{name}={fields.pop(name)}")
        for name in sorted(fields):
            parts.append(f"{name}={fields[name]}")
        return " ".join(parts)

    # -- heartbeat ---------------------------------------------------------

    def _beat_loop(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.emit()

    def emit(self) -> None:
        """Print one status line now (the heartbeat calls this; tests
        and the CLI's final flush may too)."""
        print(self.render_line(), file=self.stream, flush=True)
        self.beats += 1

    def start(self) -> "Progress":
        if self._thread is not None:
            return self
        self._started_at = time.perf_counter()
        self._stop_event.clear()
        self._thread = threading.Thread(target=self._beat_loop,
                                        name="repro-progress",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join(timeout=self.interval * 20)
        self._thread = None

    def __enter__(self) -> "Progress":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False


class NullProgress:
    """Disabled-mode progress: every call is a no-op."""

    enabled = False
    fields: Dict[str, object] = {}
    beats = 0

    def update(self, **fields: object) -> None:
        pass

    def clear(self, *names: str) -> None:
        pass

    def current_phase(self) -> None:
        return None

    def render_line(self) -> str:
        return ""

    def emit(self) -> None:
        pass

    def start(self) -> "NullProgress":
        return self

    def stop(self) -> None:
        pass

    def __enter__(self) -> "NullProgress":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_PROGRESS = NullProgress()
