"""Application statistics (the Table 2 reproduction).

The paper reports files / line counts / class counts / method counts,
application vs. total (with supporting libraries).  jlang programs have
no files; we report class counts, method counts, and IR instruction
counts (the closest analogue of line counts) for application code and
for the whole program including the model library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..modeling import prepare
from .generator import GeneratedApp


@dataclass
class AppStats:
    """Size statistics for one benchmark application."""

    name: str
    app_classes: int
    total_classes: int
    app_methods: int
    total_methods: int
    app_instructions: int
    total_instructions: int
    planted_tp: int
    planted_other: int


def compute_stats(app: GeneratedApp) -> AppStats:
    prepared = prepare(app.sources, app.deployment_descriptor)
    raw = prepared.program.stats()
    tp = sum(1 for p in app.planted if p.is_true_positive)
    return AppStats(
        name=app.spec.name,
        app_classes=raw["app_classes"],
        total_classes=raw["total_classes"],
        app_methods=raw["app_methods"],
        total_methods=raw["total_methods"],
        app_instructions=raw["app_instructions"],
        total_instructions=raw["total_instructions"],
        planted_tp=tp,
        planted_other=len(app.planted) - tp,
    )


def format_table2(stats: List[AppStats]) -> str:
    """Render the Table 2 analogue."""
    header = (f"{'Application':<14}{'Classes':>9}{'(tot)':>7}"
              f"{'Methods':>9}{'(tot)':>7}{'Instrs':>9}{'(tot)':>8}"
              f"{'TP':>5}{'Other':>7}")
    lines = [header, "-" * len(header)]
    for s in stats:
        lines.append(
            f"{s.name:<14}{s.app_classes:>9}{s.total_classes:>7}"
            f"{s.app_methods:>9}{s.total_methods:>7}"
            f"{s.app_instructions:>9}{s.total_instructions:>8}"
            f"{s.planted_tp:>5}{s.planted_other:>7}")
    return "\n".join(lines)
