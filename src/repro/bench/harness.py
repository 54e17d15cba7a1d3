"""The evaluation harness: runs configurations over the suite and
renders the paper's Table 3 and Figure 4 analogues."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from ..core import TAJ, TAJConfig
from ..modeling import prepare
from .generator import GeneratedApp
from .oracle import Score, aggregate, score_run
from .suite import FIGURE4_APPS, benign_lib_classes, generate_suite


@dataclass
class RunRecord:
    """One (app, config) cell of Table 3."""

    app: str
    config: str
    issues: int
    seconds: float
    failed: bool
    cg_nodes: int
    score: Score
    # Pointer-solver kernel counters and phase times for this run
    # (propagations, edges, time_constraint_solving, ...).
    solver_stats: Dict[str, float] = field(default_factory=dict)
    # Metrics-registry snapshot (counters/gauges/timers/histograms) for
    # this run — the full observability picture, not just the kernel.
    metrics: Dict[str, Dict] = field(default_factory=dict)
    # Resilience record (docs/robustness.md): whether this cell's
    # numbers came from a complete run, and which ladder rungs it
    # descended to get them.
    completeness: str = "complete"
    degradations: List[Dict[str, str]] = field(default_factory=list)
    # Set when the run (or the app's shared modeling) raised instead of
    # returning a result — the harness isolates the failure to this cell
    # and keeps benchmarking the rest of the suite.
    error: Optional[str] = None


@dataclass
class SuiteResults:
    """Everything a harness run produced."""

    records: List[RunRecord] = field(default_factory=list)

    def by_config(self) -> Dict[str, List[RunRecord]]:
        out: Dict[str, List[RunRecord]] = {}
        for rec in self.records:
            out.setdefault(rec.config, []).append(rec)
        return out

    def cell(self, app: str, config: str) -> Optional[RunRecord]:
        for rec in self.records:
            if rec.app == app and rec.config == config:
                return rec
        return None


def default_configs() -> List[TAJConfig]:
    return TAJConfig.all_presets()


def _failure_record(app: GeneratedApp, config: TAJConfig,
                    exc: Exception) -> RunRecord:
    """A cell for a run that raised instead of returning a result."""
    score = Score(app=app.spec.name, config=config.name, failed=True)
    score.fn = sum(1 for p in app.planted if p.is_true_positive)
    score.missed = [p for p in app.planted if p.is_true_positive]
    return RunRecord(app=app.spec.name, config=config.name, issues=0,
                     seconds=0.0, failed=True, cg_nodes=0, score=score,
                     completeness="failed",
                     error=f"{type(exc).__name__}: {exc}")


def run_suite(apps: Optional[Dict[str, GeneratedApp]] = None,
              configs: Optional[List[TAJConfig]] = None,
              app_names: Optional[List[str]] = None,
              isolate: bool = True) -> SuiteResults:
    """Run every configuration on every app; the modeled program is
    prepared once per app and shared across configurations.

    With ``isolate`` (the default), a run that raises is recorded as a
    failed cell for that (app, config) alone — one crashing app or
    configuration cannot take down the rest of the sweep.  Pass
    ``isolate=False`` to let exceptions propagate (debugging).
    """
    if apps is None:
        apps = generate_suite(app_names)
    configs = configs if configs is not None else default_configs()
    results = SuiteResults()
    for name in sorted(apps):
        app = apps[name]
        try:
            prepared = prepare(app.sources, app.deployment_descriptor)
        except Exception as exc:
            if not isolate:
                raise
            # The shared modeling phase died: every cell of this app's
            # row fails, the remaining apps still run.
            for config in configs:
                results.records.append(_failure_record(app, config, exc))
            continue
        whitelist_extra = frozenset(benign_lib_classes(app))
        for config in configs:
            run_config = config
            if config.use_whitelist:
                run_config = replace(config,
                                     whitelist_extra=whitelist_extra)
            try:
                result = TAJ(run_config).analyze_prepared(prepared)
            except Exception as exc:
                if not isolate:
                    raise
                results.records.append(_failure_record(app, config, exc))
                continue
            score = score_run(app, result)
            results.records.append(RunRecord(
                app=name, config=config.name, issues=result.issues,
                seconds=result.times.total, failed=result.failed,
                cg_nodes=result.cg_nodes, score=score,
                solver_stats=result.solver_stats(),
                metrics=result.metrics,
                completeness=result.completeness,
                degradations=[d.to_dict() for d in result.degradations]))
    return results


def write_bench_json(path: str, payload: Dict) -> None:
    """Write a machine-readable benchmark artifact.

    Stable formatting (sorted keys, trailing newline) so committed
    artifacts like ``BENCH_solver.json`` produce minimal diffs.
    """
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- rendering ----------------------------------------------------------------

def format_table3(results: SuiteResults,
                  configs: Optional[List[str]] = None) -> str:
    """The Table 3 analogue: issues + time per configuration per app.

    Failed runs (CS exceeding its memory-emulation budget) render as
    "-", as in the paper's empty cells.
    """
    config_names = configs or [c.name for c in default_configs()]
    apps = sorted({rec.app for rec in results.records})
    header = f"{'Application':<14}"
    for cname in config_names:
        short = cname.replace("hybrid-", "h-")
        header += f"{short + ' iss':>16}{'t(s)':>7}"
    lines = [header, "-" * len(header)]
    for app in apps:
        row = f"{app:<14}"
        for cname in config_names:
            rec = results.cell(app, cname)
            if rec is None or rec.failed:
                row += f"{'-':>16}{'-':>7}"
            else:
                row += f"{rec.issues:>16}{rec.seconds:>7.2f}"
        lines.append(row)
    lines.append("-" * len(header))
    summary = f"{'mean time':<14}"
    for cname in config_names:
        recs = [r for r in results.by_config().get(cname, [])
                if not r.failed]
        mean = sum(r.seconds for r in recs) / len(recs) if recs else 0.0
        summary += f"{'':>16}{mean:>7.2f}"
    lines.append(summary)
    return "\n".join(lines)


def format_figure4(results: SuiteResults,
                   apps: Optional[List[str]] = None,
                   configs: Optional[List[str]] = None) -> str:
    """The Figure 4 analogue: TP/FP breakdown on the key benchmarks,
    plus per-configuration accuracy scores."""
    config_names = configs or [c.name for c in default_configs()]
    apps = apps or FIGURE4_APPS
    header = f"{'Application':<14}"
    for cname in config_names:
        short = cname.replace("hybrid-", "h-")
        header += f"{short:>22}"
    lines = [header]
    sub = f"{'':<14}" + "".join(f"{'TP/FP/FN':>22}" for _ in config_names)
    lines.append(sub)
    lines.append("-" * len(sub))
    for app in apps:
        row = f"{app:<14}"
        for cname in config_names:
            rec = results.cell(app, cname)
            if rec is None:
                row += f"{'?':>22}"
            elif rec.failed:
                row += f"{'(out of budget)':>22}"
            else:
                s = rec.score
                row += f"{f'{s.tp}/{s.fp}/{s.fn}':>22}"
        lines.append(row)
    lines.append("-" * len(sub))
    acc = f"{'accuracy':<14}"
    for cname in config_names:
        scores = [results.cell(app, cname).score for app in apps
                  if results.cell(app, cname) is not None]
        agg = aggregate(scores)
        acc += f"{agg['accuracy']:>22.2f}"
    lines.append(acc)
    return "\n".join(lines)
