"""Order statistics for the end-to-end benchmark.

Quartiles use ``statistics.quantiles(values, n=4)`` (the default
"exclusive" method), so the spread this benchmark prints is the spread
a reader recomputes from the same values.  p90 is the nearest-rank
percentile, an observed sample rather than an interpolation.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]``; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of empty data")
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def p90(values: Sequence[float]) -> float:
    """Nearest-rank 90th percentile."""
    if not values:
        raise ValueError("p90 of empty data")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(0.9 * len(ordered))) - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    q1, _, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}
