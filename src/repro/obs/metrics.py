"""The central metrics registry: counters, gauges, and histograms.

Four instrument families, all addressed by dotted names
(``pointer.propagations``, ``memory.peak_bytes`` — conventions in
``docs/observability.md``):

* **counters** — monotonically accumulated totals (``inc``);
* **gauges** — last-written values, with a high-water variant
  (``gauge`` / ``gauge_max``);
* **timers** — histograms of seconds (``record_time``), summarized as
  count/total/p50/p95/max;
* **value histograms** — histograms of unitless magnitudes such as
  points-to set sizes or worklist depths (``record_value``), with the
  same summary shape.

:meth:`MetricsRegistry.snapshot` returns the whole registry as plain
JSON-serializable dicts; that snapshot is what ``TAJResult.metrics``
carries, what ``--metrics FILE`` writes, and what the bench artifacts
embed.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of empty data")
    if q <= 0.0:
        return sorted_values[0]
    if q >= 100.0:
        return sorted_values[-1]
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


class Histogram:
    """Raw-observation histogram summarized on demand."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    def summary(self) -> Dict[str, float]:
        if not self.values:
            return {"count": 0, "total": 0.0, "p50": 0.0, "p95": 0.0,
                    "max": 0.0}
        ordered = sorted(self.values)
        return {
            "count": len(ordered),
            "total": sum(ordered),
            "p50": percentile(ordered, 50.0),
            "p95": percentile(ordered, 95.0),
            "max": ordered[-1],
        }


class MetricsRegistry:
    """Counters + gauges + timer/value histograms behind one facade."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, Histogram] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- writing -----------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """High-water gauge: keeps the maximum ever written."""
        if value > self._gauges.get(name, float("-inf")):
            self._gauges[name] = value

    def record_time(self, name: str, seconds: float) -> None:
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = Histogram()
        timer.observe(seconds)

    def record_value(self, name: str, value: float) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    def record_values(self, name: str, values: Iterable[float]) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.values.extend(values)

    def merge_counters(self, counters: Mapping[str, float],
                       prefix: str = "") -> None:
        """Absorb a plain stats dict (e.g. the solver's kernel counters)
        under an optional dotted prefix."""
        for name, value in counters.items():
            self.inc(prefix + name, value)

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str) -> float:
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def timer_summary(self, name: str) -> Dict[str, float]:
        timer = self._timers.get(name)
        return timer.summary() if timer else Histogram().summary()

    def snapshot(self) -> Dict[str, Dict]:
        """The registry as JSON-serializable plain dicts."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "timers": {name: self._timers[name].summary()
                       for name in sorted(self._timers)},
            "histograms": {name: self._histograms[name].summary()
                           for name in sorted(self._histograms)},
        }
