"""The regression sentinel: diff the newest ledger entry against a
baseline window with noise-aware thresholds.

Given a run ledger (:mod:`repro.obs.ledger`), the sentinel takes the
newest record, collects the last *k* **comparable** records (same kind,
config fingerprint, and corpus hash), and flags every phase, the total,
and every work counter whose newest value exceeds a robust threshold
built from the baseline window:

    threshold = max(median + k_mad * 1.4826 * MAD,   # noise band
                    median * min_ratio,              # relative floor
                    median + min_abs)                # absolute floor

Median/MAD (not mean/stddev) so one outlier baseline run cannot poison
the window; the 1.4826 factor makes the MAD a consistent estimator of
the standard deviation under normal noise.  The *min_ratio* and
*min_abs* floors keep microsecond phases from tripping on scheduler
jitter.

Wall-clock gates (phases, total) additionally require the newest
record's **host fingerprint** to match the whole baseline window —
comparing a laptop's wall time against a CI runner's is noise, not
signal.  Work-counter gates (propagations, flows, …) are deterministic
and always apply.  ``benchmarks/regression.py`` is the CI entry point;
this module is also runnable directly::

    python -m repro.obs.compare BENCH_ledger.jsonl --check
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from .ledger import comparable_records, read_ledger

# Robust-threshold defaults (overridable per call / per CLI flag).
DEFAULT_WINDOW = 5           # baseline records considered
DEFAULT_MIN_BASELINE = 2     # fewer comparable records => no verdict
DEFAULT_K_MAD = 4.0          # noise band width, in consistent MADs
DEFAULT_MIN_RATIO = 1.30     # never flag below +30% of the median
DEFAULT_MIN_ABS = 0.010      # ... or below +10ms absolute (seconds)
DEFAULT_COUNTER_RATIO = 1.10  # counters are deterministic: +10% is real

_MAD_CONSISTENCY = 1.4826


@dataclass
class Finding:
    """One flagged (or cleared) metric."""

    metric: str                 # "phase.taint" | "seconds" | "counter.*"
    newest: float
    median: float
    mad: float
    threshold: float
    regressed: bool

    @property
    def ratio(self) -> float:
        return self.newest / self.median if self.median else float("inf")

    def render(self) -> str:
        state = "REGRESSED" if self.regressed else "ok"
        return (f"{self.metric:<32} newest={self.newest:>12.4f} "
                f"median={self.median:>12.4f} mad={self.mad:>10.4f} "
                f"threshold={self.threshold:>12.4f} "
                f"x{self.ratio:>5.2f}  {state}")


@dataclass
class Comparison:
    """The sentinel's full verdict on one newest-vs-baseline diff."""

    baseline_size: int
    wall_gated: bool            # were wall-clock gates applied?
    skipped_reason: Optional[str]  # why wall gates (or all) were skipped
    findings: List[Finding]

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if f.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_payload(self) -> Dict:
        return {
            "baseline_size": self.baseline_size,
            "wall_gated": self.wall_gated,
            "skipped_reason": self.skipped_reason,
            "regressions": [f.metric for f in self.regressions],
            "findings": [{
                "metric": f.metric, "newest": f.newest,
                "median": f.median, "mad": f.mad,
                "threshold": f.threshold, "regressed": f.regressed,
            } for f in self.findings],
        }


def _threshold(values: List[float], k_mad: float, min_ratio: float,
               min_abs: float) -> Dict[str, float]:
    median = statistics.median(values)
    mad = statistics.median([abs(v - median) for v in values])
    threshold = max(median + k_mad * _MAD_CONSISTENCY * mad,
                    median * min_ratio,
                    median + min_abs)
    return {"median": median, "mad": mad, "threshold": threshold}


def _gate(metric: str, newest: float, values: List[float],
          k_mad: float, min_ratio: float, min_abs: float) -> Finding:
    stats = _threshold(values, k_mad, min_ratio, min_abs)
    return Finding(metric=metric, newest=newest,
                   median=stats["median"], mad=stats["mad"],
                   threshold=stats["threshold"],
                   regressed=newest > stats["threshold"])


def compare(newest: Dict, baseline: List[Dict],
            k_mad: float = DEFAULT_K_MAD,
            min_ratio: float = DEFAULT_MIN_RATIO,
            min_abs: float = DEFAULT_MIN_ABS,
            counter_ratio: float = DEFAULT_COUNTER_RATIO,
            wall: bool = True) -> Comparison:
    """Diff one record against its baseline window.

    ``baseline`` must already be filtered to comparable records (use
    :func:`~repro.obs.ledger.comparable_records`); ``wall=False`` skips
    the wall-clock gates and checks only work counters.
    """
    findings: List[Finding] = []
    skipped = None
    if wall:
        # Per-phase walls: the phase diff is what *names* the
        # regression — "taint regressed" beats "the run got slower".
        phases = sorted(newest.get("phases", {}))
        for phase in phases:
            values = [rec["phases"][phase] for rec in baseline
                      if phase in rec.get("phases", {})]
            if not values:
                continue
            findings.append(_gate(f"phase.{phase}",
                                  newest["phases"][phase], values,
                                  k_mad, min_ratio, min_abs))
        totals = [rec["seconds"] for rec in baseline
                  if "seconds" in rec]
        if totals:
            findings.append(_gate("seconds", newest.get("seconds", 0.0),
                                  totals, k_mad, min_ratio, min_abs))
    else:
        skipped = "wall-clock gates skipped"
    # Work counters: host-independent, so the MAD band is usually zero
    # and the ratio floor does the work.
    for name in sorted(newest.get("counters", {})):
        values = [rec["counters"][name] for rec in baseline
                  if name in rec.get("counters", {})]
        if not values:
            continue
        findings.append(_gate(f"counter.{name}",
                              newest["counters"][name], values,
                              k_mad, counter_ratio, 0.0))
    return Comparison(baseline_size=len(baseline), wall_gated=wall,
                      skipped_reason=skipped, findings=findings)


def compare_ledger(path: str, window: int = DEFAULT_WINDOW,
                   min_baseline: int = DEFAULT_MIN_BASELINE,
                   wall: str = "auto", **thresholds) -> Comparison:
    """Sentinel over a ledger file: newest record vs its last-*k*
    comparable predecessors.

    ``wall`` policy: ``"auto"`` applies wall gates only when the whole
    baseline window shares the newest record's host fingerprint (the
    1-core-container / CI-runner case degrades to counter gates);
    ``"on"`` forces them; ``"off"`` disables them.
    """
    records = read_ledger(path)
    if not records:
        return Comparison(0, False, "empty ledger", [])
    newest = records[-1]
    baseline = comparable_records(records[:-1], newest)[-window:]
    if len(baseline) < min_baseline:
        return Comparison(len(baseline), False,
                          f"insufficient history "
                          f"({len(baseline)} comparable baseline "
                          f"record(s), need {min_baseline})", [])
    same_host = len(comparable_records(baseline + [newest], newest,
                                       same_host=True)) == len(baseline)
    if wall == "on":
        use_wall = True
    elif wall == "off":
        use_wall = False
    else:
        use_wall = same_host
    comparison = compare(newest, baseline, wall=use_wall, **thresholds)
    if not use_wall and comparison.skipped_reason:
        comparison.skipped_reason += (
            "" if wall == "off"
            else " (host fingerprint differs from baseline window)")
    return comparison


def render(comparison: Comparison) -> str:
    lines = [f"regression sentinel: {comparison.baseline_size} baseline "
             f"record(s), wall gates "
             f"{'on' if comparison.wall_gated else 'off'}"]
    if comparison.skipped_reason:
        lines.append(f"note: {comparison.skipped_reason}")
    for finding in comparison.findings:
        lines.append("  " + finding.render())
    if not comparison.findings:
        lines.append("  (no gated metrics)")
    lines.append("verdict: " + ("OK" if comparison.ok else
                                "REGRESSED: " + ", ".join(
                                    f.metric
                                    for f in comparison.regressions)))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.compare",
        description="Diff the newest run-ledger entry against a "
                    "baseline window with noise-aware thresholds.")
    parser.add_argument("ledger", help="JSONL run ledger path")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any gated metric regressed")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        help=f"baseline window size "
                             f"(default {DEFAULT_WINDOW})")
    parser.add_argument("--min-baseline", type=int,
                        default=DEFAULT_MIN_BASELINE,
                        help="comparable records required for a verdict "
                             f"(default {DEFAULT_MIN_BASELINE})")
    parser.add_argument("--k-mad", type=float, default=DEFAULT_K_MAD,
                        help=f"noise band width in consistent MADs "
                             f"(default {DEFAULT_K_MAD})")
    parser.add_argument("--min-ratio", type=float,
                        default=DEFAULT_MIN_RATIO,
                        help="relative wall floor "
                             f"(default {DEFAULT_MIN_RATIO})")
    parser.add_argument("--wall", choices=("auto", "on", "off"),
                        default="auto",
                        help="wall-clock gate policy: auto = only when "
                             "the host fingerprint matches the whole "
                             "baseline window (default)")
    parser.add_argument("--json", action="store_true",
                        help="emit the comparison as JSON")
    args = parser.parse_args(argv)

    comparison = compare_ledger(args.ledger, window=args.window,
                                min_baseline=args.min_baseline,
                                wall=args.wall, k_mad=args.k_mad,
                                min_ratio=args.min_ratio)
    if args.json:
        print(json.dumps(comparison.to_payload(), indent=2,
                         sort_keys=True))
    else:
        print(render(comparison))
    if args.check and not comparison.ok:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
