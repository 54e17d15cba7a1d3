"""Zero-dependency sampling profiler with pipeline-phase attribution.

The span tracer answers "how long did each phase take"; this module
answers "*where inside the phase* did the time go" without touching the
hot loops.  A :class:`SamplingProfiler` interrupts the running analysis
at a fixed interval, captures the Python call stack, and attributes the
sample to the pipeline phase whose ``phase.*`` span is currently open
(read from the tracer's open-span stack — racy by construction, and
fine: a misattributed sample costs one interval of resolution).

Two backends, both stdlib-only:

* ``signal`` — ``signal.setitimer(ITIMER_PROF)`` + a ``SIGPROF``
  handler sampling the interrupted frame.  CPU-time (user+sys)
  sampling: the timer only advances while the process executes, so the
  totals are *self-time* and never exceed wall clock.  Main thread
  only (CPython delivers signals there).
* ``thread`` — a daemon thread sampling the target thread's frame via
  ``sys._current_frames()``.  Wall-clock sampling; works anywhere,
  including where another component owns the process's signals.

``backend="auto"`` picks ``signal`` on the main thread of platforms
that have ``setitimer``, ``thread`` otherwise.

Samples accumulate in a :class:`ProfileData`: collapsed call stacks
(root→leaf, prefixed with the phase) keyed to sample counts — Brendan
Gregg's *collapsed stack* format, renderable with any
``flamegraph.pl``-compatible tool (``docs/observability.md``).
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

# Sampling interval default: 4 ms — coarse enough to stay far below 1%
# overhead, fine enough that a multi-second phase collects hundreds of
# samples.
DEFAULT_INTERVAL = 0.004

# Phase label used when no tracer is attached.
DEFAULT_PHASE = "untracked"

# Frames from these filenames are the profiler observing itself (or the
# interpreter's threading plumbing under the thread backend) and are
# trimmed from every captured stack.
_SELF_FILES = (__name__.rsplit(".", 1)[-1] + ".py",)

# Hot-loop markers (docs/observability.md): function names whose
# presence anywhere in a stack classifies the sample as solver or
# tabulation hot-loop work, reported by ``ProfileData.hot_loop_seconds``.
HOT_LOOPS = {
    "_solve_constraints": "pointer.constraint_solving",
    "_add_constraints": "pointer.constraint_adding",
    "_collapse_cycles": "pointer.scc_collapse",
    "tabulate": "sdg.tabulation",
    "slice_rule": "taint.slice_rule",
    "stitch": "summaries.stitch",
}


class ProfileData:
    """Accumulated samples: ``(phase, stack) -> count``.

    ``stack`` is a root-first tuple of ``"file.function"`` frames.  All
    arithmetic is in sample counts against one fixed ``interval``.
    """

    __slots__ = ("interval", "counts")

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        self.interval = interval
        self.counts: Dict[Tuple[str, Tuple[str, ...]], int] = {}

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def add(self, phase: str, stack: Tuple[str, ...],
            count: int = 1) -> None:
        key = (phase, stack)
        self.counts[key] = self.counts.get(key, 0) + count

    # -- reading -----------------------------------------------------------

    def phase_self_seconds(self) -> Dict[str, float]:
        """Sampled self-time per pipeline phase, seconds."""
        out: Dict[str, float] = {}
        for (phase, _stack), count in self.counts.items():
            out[phase] = out.get(phase, 0.0) + count * self.interval
        return {phase: round(seconds, 6)
                for phase, seconds in sorted(out.items())}

    def function_self_seconds(self) -> Dict[str, float]:
        """Sampled self-time per *leaf* frame (the function actually on
        CPU), seconds, descending."""
        out: Dict[str, float] = {}
        for (_phase, stack), count in self.counts.items():
            leaf = stack[-1] if stack else "<unknown>"
            out[leaf] = out.get(leaf, 0.0) + count * self.interval
        return dict(sorted(((name, round(s, 6))
                            for name, s in out.items()),
                           key=lambda item: (-item[1], item[0])))

    def hot_loop_seconds(self) -> Dict[str, float]:
        """Sampled time inside the known solver/tabulation hot loops
        (a sample counts toward the innermost marker on its stack)."""
        out: Dict[str, float] = {}
        for (_phase, stack), count in self.counts.items():
            for frame in reversed(stack):
                name = frame.rsplit(".", 1)[-1]
                label = HOT_LOOPS.get(name)
                if label is not None:
                    out[label] = out.get(label, 0.0) + \
                        count * self.interval
                    break
        return {name: round(s, 6) for name, s in sorted(out.items())}

    def collapsed_lines(self) -> List[str]:
        """Collapsed-stack flamegraph lines, ``phase;f1;f2 count``,
        sorted for stable diffs."""
        lines = []
        for (phase, stack), count in self.counts.items():
            frames = ";".join((phase,) + stack) if stack else phase
            lines.append(f"{frames} {count}")
        return sorted(lines)

    def payload(self) -> Dict[str, object]:
        """JSON-serializable summary (what ``TAJResult.profile``
        carries): totals per phase and hot loop, the heaviest leaves,
        and the sample bookkeeping needed to interpret them."""
        functions = self.function_self_seconds()
        return {
            "interval_seconds": self.interval,
            "samples": self.samples,
            "phase_self_seconds": self.phase_self_seconds(),
            "hot_loop_seconds": self.hot_loop_seconds(),
            "top_functions": dict(list(functions.items())[:15]),
        }


def write_collapsed(data: ProfileData, path: str) -> int:
    """Write the collapsed-stack file; returns the line count.  Render
    with e.g. ``flamegraph.pl profile.txt > profile.svg``."""
    lines = data.collapsed_lines()
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    return len(lines)


def _capture(frame, max_depth: int) -> Tuple[str, ...]:
    """Root-first ``"file.function"`` stack of ``frame``, trimmed of
    the profiler's own frames."""
    frames: List[str] = []
    while frame is not None and len(frames) < max_depth:
        code = frame.f_code
        filename = code.co_filename.rsplit("/", 1)[-1]
        if filename not in _SELF_FILES:
            frames.append(f"{filename[:-3]}.{code.co_name}"
                          if filename.endswith(".py")
                          else f"{filename}.{code.co_name}")
        frame = frame.f_back
    frames.reverse()
    return tuple(frames)


class SamplingProfiler:
    """Periodic stack sampler with phase attribution.

    ``tracer`` (a :class:`~repro.obs.tracer.Tracer`) supplies the
    current phase: the outermost open ``phase.*`` span, read at sample
    time.  Without one, every sample lands under :data:`DEFAULT_PHASE`.

    Thread-safety: ``start``/``stop`` are intended for the owning
    thread; the sample handlers only append to the data dict, which the
    GIL serializes.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL,
                 tracer: Optional[object] = None,
                 backend: str = "auto",
                 max_depth: int = 64) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if backend not in ("auto", "signal", "thread"):
            raise ValueError(f"unknown profiler backend {backend!r}")
        self.interval = interval
        self.tracer = tracer
        self.max_depth = max_depth
        self.data = ProfileData(interval)
        self.backend = self._pick_backend(backend)
        self.running = False
        self._prev_handler = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._target_ident: Optional[int] = None

    @staticmethod
    def _pick_backend(requested: str) -> str:
        if requested != "auto":
            return requested
        on_main = threading.current_thread() is threading.main_thread()
        if on_main and hasattr(signal, "setitimer"):
            return "signal"
        return "thread"

    # -- phase attribution -------------------------------------------------

    def _current_phase(self) -> str:
        tracer = self.tracer
        if tracer is None:
            return DEFAULT_PHASE
        stack = getattr(tracer, "_stack", None)
        if not stack:
            return DEFAULT_PHASE
        # Roots of the span forest are the pipeline phases; the
        # outermost open span names the one we are inside.
        root = stack[0]
        name = root.name
        if name.startswith("phase."):
            return name[len("phase."):]
        return name or DEFAULT_PHASE

    # -- signal backend ----------------------------------------------------

    def _on_signal(self, _signum, frame) -> None:
        self.data.add(self._current_phase(),
                      _capture(frame, self.max_depth))

    # -- thread backend ----------------------------------------------------

    def _sample_loop(self) -> None:
        ident = self._target_ident
        while not self._stop_event.wait(self.interval):
            frame = sys._current_frames().get(ident)
            if frame is None:
                continue
            self.data.add(self._current_phase(),
                          _capture(frame, self.max_depth))

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        if self.backend == "signal":
            self._prev_handler = signal.signal(signal.SIGPROF,
                                               self._on_signal)
            signal.setitimer(signal.ITIMER_PROF, self.interval,
                             self.interval)
        else:
            self._target_ident = threading.get_ident()
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._sample_loop, name="repro-profiler",
                daemon=True)
            self._thread.start()
        self.running = True
        return self

    def stop(self) -> ProfileData:
        if not self.running:
            return self.data
        if self.backend == "signal":
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            if self._prev_handler is not None:
                signal.signal(signal.SIGPROF, self._prev_handler)
                self._prev_handler = None
        else:
            self._stop_event.set()
            if self._thread is not None:
                self._thread.join(timeout=self.interval * 20)
                self._thread = None
        self.running = False
        return self.data

    def payload(self) -> Dict[str, object]:
        return self.data.payload()

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

