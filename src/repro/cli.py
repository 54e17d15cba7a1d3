"""Command-line interface: ``python -m repro [options] file.jlang ...``

Analyzes jlang source files and prints (or JSON-dumps) the report.

    python -m repro app.jlang
    python -m repro --config ci --rules extended app.jlang lib.jlang
    python -m repro --json --descriptor ejb.json app.jlang
    python -m repro --dynamic app.jlang      # also run the interpreter
    python -m repro --trace t.json --metrics m.json app.jlang
    python -m repro --audit audit.json app.jlang

Observability (``docs/observability.md``): ``--trace`` writes a Chrome
``chrome://tracing``-loadable span trace (``--trace-jsonl`` the JSONL
flavor), ``--metrics`` a metrics-registry snapshot (counters, timer
percentiles, peak-memory gauges), ``--audit`` the per-flow provenance
audit, and ``--stats`` prints the solver kernel counters plus the
registry summary table.  ``--profile`` samples the run with the
phase-attributed profiler and writes a collapsed-stack flamegraph
file, and ``--ledger`` appends one run-ledger record (diff history with
``python -m repro.obs.compare``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Dict, List, Optional

from .core import TAJ, TAJConfig
from .lang import lower_sources, parse
from .lang.errors import SourceError
from .obs import (Observability, SamplingProfiler, append_record,
                  record_from_result, write_audit_json,
                  write_chrome_trace, write_collapsed, write_metrics_json,
                  write_spans_jsonl)
from .reporting import render_metrics_table, render_text
from .taint import default_rules, extended_rules

CONFIG_FACTORIES = {
    "unbounded": TAJConfig.hybrid_unbounded,
    "prioritized": TAJConfig.hybrid_prioritized,
    "optimized": TAJConfig.hybrid_optimized,
    "cs": TAJConfig.cs,
    "ci": TAJConfig.ci,
    "summary": TAJConfig.summary,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TAJ-style static taint analysis for jlang sources "
                    "(PLDI 2009 reproduction).")
    parser.add_argument("files", nargs="+",
                        help="jlang source files to analyze together")
    parser.add_argument("--config", choices=sorted(CONFIG_FACTORIES),
                        default="optimized",
                        help="analysis configuration (default: optimized)")
    parser.add_argument("--strategy", choices=("hybrid", "cs", "ci",
                                               "summary"),
                        help="override the slicing strategy of the "
                             "chosen --config (e.g. run the optimized "
                             "preset on the summary engine); the run is "
                             "then named <preset>+<strategy>")
    parser.add_argument("--summary-cache", metavar="DIR",
                        help="persistent per-method summary cache for "
                             "the summary strategy: cold runs populate "
                             "DIR, warm runs on the same or overlapping "
                             "apps reuse it (implies --strategy "
                             "summary, and no other --strategy may be "
                             "given; foreign/corrupt caches are "
                             "detected and rebuilt, "
                             "docs/performance.md)")
    parser.add_argument("--rules", choices=("default", "extended"),
                        default="default",
                        help="security-rule set (extended adds open "
                             "redirect + response splitting)")
    parser.add_argument("--descriptor", metavar="JSON",
                        help="EJB deployment descriptor: JSON file "
                             "mapping JNDI names to bean classes")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    parser.add_argument("--sarif", action="store_true",
                        help="emit the report as SARIF 2.1.0")
    parser.add_argument("--dynamic", action="store_true",
                        help="also execute the program concretely and "
                             "report tainted sink events")
    parser.add_argument("--confirm", action="store_true",
                        help="replay each reported flow with partial "
                             "instrumentation and label it confirmed/"
                             "refuted/inconclusive "
                             "(docs/validation.md)")
    parser.add_argument("--confirm-fuel", type=int, default=200_000,
                        metavar="N",
                        help="interpreter step budget per confirmation "
                             "replay (default 200000)")
    parser.add_argument("--confirm-seed", type=int, default=1,
                        metavar="N",
                        help="payload seed for confirmation replays "
                             "(default 1)")
    parser.add_argument("--stats", action="store_true",
                        help="print solver kernel statistics "
                             "(propagations, edges, phase times) "
                             "and the metrics-registry summary table")
    parser.add_argument("--trace", metavar="FILE",
                        help="write the span trace in Chrome trace-event "
                             "format (load in chrome://tracing)")
    parser.add_argument("--trace-jsonl", metavar="FILE",
                        help="write the span trace as JSONL "
                             "(one span per line)")
    parser.add_argument("--metrics", metavar="FILE",
                        help="write the metrics-registry snapshot as "
                             "JSON (enables peak-memory sampling)")
    parser.add_argument("--audit", metavar="FILE",
                        help="write the flow-provenance audit as JSON "
                             "(witness chain per reported flow)")
    parser.add_argument("--profile", metavar="FILE",
                        help="sample the run with the phase-attributed "
                             "profiler and write the collapsed-stack "
                             "file (render with flamegraph.pl)")
    parser.add_argument("--profile-interval", type=float,
                        default=0.004, metavar="SECONDS",
                        help="profiler sampling interval "
                             "(default 0.004)")
    parser.add_argument("--ledger", metavar="FILE",
                        help="append one run-ledger record (JSONL) for "
                             "this analysis; diff run history with "
                             "'python -m repro.obs.compare FILE'")
    parser.add_argument("--commit", metavar="SHA",
                        help="VCS commit id to record in the ledger "
                             "entry (the ledger never shells out to "
                             "git itself)")
    parser.add_argument("--max-cg-nodes", type=int, metavar="N",
                        help="override the call-graph node budget")
    parser.add_argument("--flow-length", type=int, metavar="N",
                        help="override the flow-length bound")
    parser.add_argument("--deadline", type=float, metavar="SECONDS",
                        help="wall-clock budget for the analysis; on "
                             "expiry the pipeline degrades and reports "
                             "partial results (docs/robustness.md)")
    parser.add_argument("--keep-going", action="store_true",
                        help="resilient mode: quarantine source files "
                             "that fail to compile and walk the "
                             "degradation ladder on budget/deadline "
                             "trips instead of aborting")
    parser.add_argument("--fault-plan", metavar="FILE",
                        help="inject the scripted fault plan (JSON list "
                             "of {seam, at, action, ...} objects, "
                             "docs/robustness.md) into the run; exit "
                             "codes report the outcome as usual: 0 = "
                             "complete and clean, 1 = issues found or a "
                             "partial-* verdict (an absorbed fault), "
                             "2 = the run failed")
    return parser


def _frontend_diagnostics(paths: List[str],
                          sources: List[str]) -> List[str]:
    """Re-compile the corpus piecewise to attribute frontend errors.

    Lex/parse errors attribute exactly per file.  For lowering errors
    the program is regrown one file at a time; the file whose addition
    trips the error is reported (it may only be broken in combination
    with its predecessors, e.g. a duplicate class across files).
    """
    lines = []
    parsed = []
    for path, source in zip(paths, sources):
        try:
            parse(source)
            parsed.append((path, source))
        except SourceError as exc:
            kind = type(exc).__name__
            lines.append(f"{path}: [frontend] {kind}: {exc}")
    if not lines:
        for index in range(len(parsed)):
            try:
                lower_sources([src for _, src in parsed[:index + 1]])
            except SourceError as exc:
                kind = type(exc).__name__
                lines.append(f"{parsed[index][0]}: [frontend] "
                             f"{kind}: {exc}")
                break
    if not lines:
        lines.append("[frontend] SourceError: sources do not form a "
                     "consistent program (duplicate or conflicting "
                     "classes across files)")
    return lines


def _read_text(path: str) -> str:
    """A UTF-8 input file's text; ``ValueError`` names the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: "
                         f"{exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None


def _load_descriptor(path: Optional[str]) -> Optional[Dict[str, str]]:
    if path is None:
        return None
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"descriptor {path} is not JSON: {exc}") \
            from None
    if not isinstance(data, dict):
        raise ValueError(f"descriptor {path} must contain a JSON object")
    for name, bean in data.items():
        # str() would turn null, 5 or ["x"] into a bean class no
        # program declares, and the EJB flows would vanish silently.
        if not isinstance(bean, str):
            raise ValueError(f"descriptor {path}: the bean class of "
                             f"{name!r} must be a string, got "
                             f"{json.dumps(bean)}")
    return data


def _range_error(args: argparse.Namespace) -> Optional[str]:
    """A one-line message for a number out of range, else ``None``.

    Zero is a valid bound (``--deadline 0`` expires at once,
    ``--flow-length 0`` reports nothing); a negative one is a typo that
    would otherwise pass for a clean or degraded result.
    """
    for flag in ("max_cg_nodes", "flow_length", "confirm_fuel",
                 "deadline"):
        value = getattr(args, flag)
        if value is not None and not value >= 0:
            return f"--{flag.replace('_', '-')} must be 0 or more, " \
                   f"got {value}"
    if not args.profile_interval > 0:
        return f"--profile-interval must be positive, " \
               f"got {args.profile_interval}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    error = _range_error(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.summary_cache and args.strategy not in (None, "summary"):
        print(f"--summary-cache runs the summary strategy; it cannot be "
              f"combined with --strategy {args.strategy}", file=sys.stderr)
        return 2
    try:
        sources = [_read_text(path) for path in args.files]
        descriptor = _load_descriptor(args.descriptor)
    except ValueError as exc:
        # Unreadable input is a usage error, not "issues found".
        print(f"unreadable input: {exc}", file=sys.stderr)
        return 2

    config = CONFIG_FACTORIES[args.config]()
    preset_slicing = config.slicing
    if args.summary_cache:
        config = config.with_summary_cache(args.summary_cache)
    elif args.strategy is not None:
        config = replace(config, slicing=args.strategy)
    if config.slicing != preset_slicing:
        # Name the engine that ran, not only the preset it came from:
        # the report title, JSON "config" and ledger all carry it.
        config = replace(config, name=f"{config.name}+{config.slicing}")
    overrides = {}
    if args.max_cg_nodes is not None:
        overrides["max_cg_nodes"] = args.max_cg_nodes
    if args.flow_length is not None:
        overrides["max_flow_length"] = args.flow_length
    if overrides:
        config = config.with_budget(**overrides)
    if args.deadline is not None or args.keep_going:
        config = config.with_resilience(deadline_seconds=args.deadline,
                                        resilient=args.keep_going)
    if args.confirm:
        config = config.with_confirm(fuel=args.confirm_fuel,
                                     seed=args.confirm_seed)
    plan = None
    if args.fault_plan:
        from .resilience import FaultPlan
        try:
            with open(args.fault_plan, encoding="utf-8") as handle:
                plan = FaultPlan.from_json(handle.read())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"invalid fault plan {args.fault_plan}: {exc}",
                  file=sys.stderr)
            return 2
    rules = extended_rules() if args.rules == "extended" \
        else default_rules()

    profiler = SamplingProfiler(interval=args.profile_interval) \
        if args.profile else False
    obs = Observability(audit=args.audit is not None,
                        memory=args.metrics is not None,
                        profile=profiler)
    try:
        result = TAJ(config, rules=rules, obs=obs,
                     faults=plan).analyze_sources(
            sources, deployment_descriptor=descriptor)
    except SourceError:
        # Strict mode (no --keep-going): a broken source aborts the
        # run.  Re-parse each file individually so every failure is
        # reported as a structured diagnostic with its file name.
        for line in _frontend_diagnostics(args.files, sources):
            print(line, file=sys.stderr)
        print("analysis failed: broken input (use --keep-going to "
              "quarantine broken files)", file=sys.stderr)
        return 2

    for diag in result.diagnostics:
        prefix = ""
        if diag.source_index is not None and \
                diag.source_index < len(args.files):
            prefix = f"{args.files[diag.source_index]}: "
        print(f"{prefix}{diag.render()}", file=sys.stderr)

    if args.trace:
        write_chrome_trace(obs.tracer, args.trace,
                           metadata={"config": config.name,
                                     "files": len(args.files)})
    if args.trace_jsonl:
        write_spans_jsonl(obs.tracer, args.trace_jsonl)
    if args.metrics:
        write_metrics_json(result.metrics, args.metrics)
    if args.audit:
        write_audit_json(obs.audit, args.audit)
    if args.profile:
        write_collapsed(obs.profiler.data, args.profile)
    if args.ledger:
        append_record(args.ledger,
                      record_from_result(result, config, sources,
                                         commit=args.commit))

    if args.sarif:
        from .reporting import render_sarif
        print(render_sarif(result.report, rules,
                           completeness=result.completeness))
    elif args.json:
        payload = {
            "config": config.name,
            "issues": result.report.to_dicts() if result.report else [],
            "raw_flows": result.raw_flows,
            "call_graph_nodes": result.cg_nodes,
            "failed": result.failed,
            "truncated": result.truncated,
            "completeness": result.completeness,
            "seconds": round(result.times.total, 4),
        }
        if result.degradations:
            payload["degradations"] = [d.to_dict()
                                       for d in result.degradations]
        if result.diagnostics:
            payload["diagnostics"] = [d.to_dict()
                                      for d in result.diagnostics]
        if result.confirmation is not None:
            payload["confirmation"] = result.confirmation.to_payload()
        if args.stats:
            payload["stats"] = result.solver_stats()
        if result.profile is not None:
            payload["profile"] = result.profile
        print(json.dumps(payload, indent=2))
    else:
        if result.report is not None:
            print(render_text(result.report,
                              title=f"TAJ report ({config.name})"))
        else:
            print(f"TAJ report ({config.name}): no report — the run "
                  f"ended '{result.completeness}' before reporting "
                  f"({result.raw_flows} raw flows collected)")
        if result.completeness not in ("complete",):
            print(f"\ncompleteness: {result.completeness}")
            for deg in result.degradations:
                print(f"  degraded: {deg.phase} [{deg.trigger}] "
                      f"-> {deg.fallback}")
        if result.confirmation is not None:
            conf = result.confirmation
            counts = conf.counts()
            print(f"\ndynamic confirmation (seed {conf.seed}, "
                  f"{conf.replays} replays): "
                  + ", ".join(f"{counts[name]} {name}"
                              for name in counts))
            for verdict in conf.verdicts:
                detail = verdict.reason
                if verdict.fault_replay:
                    detail += ", fault-mode"
                print(f"  [{verdict.rule}] {verdict.source} -> "
                      f"{verdict.sink} ({verdict.sink_display}): "
                      f"{verdict.verdict} ({detail})")
        if result.failed:
            print(f"\nanalysis failed: {result.failure}")
        elif result.truncated:
            print("\nnote: a bound truncated the analysis "
                  "(results may be incomplete)")
        if args.stats:
            print("\nsolver statistics:")
            for name, value in result.solver_stats().items():
                if isinstance(value, float):
                    print(f"  {name:<26} {value:.4f}")
                else:
                    print(f"  {name:<26} {value}")
            print()
            print(render_metrics_table(result.metrics))
        if args.stats and result.profile is not None:
            prof = result.profile
            print(f"\nprofile ({prof['samples']} samples @ "
                  f"{prof['interval_seconds']}s):")
            for name, seconds in prof["phase_self_seconds"].items():
                print(f"  {name:<26} {seconds:.3f}s")
            for name, seconds in prof["hot_loop_seconds"].items():
                print(f"  [hot] {name:<20} {seconds:.3f}s")

    if args.dynamic:
        from .interp import run_dynamic
        summary = run_dynamic(sources, descriptor)
        print()
        print("dynamic execution:")
        if not summary.witnesses:
            print("  no tainted sink events observed")
        for witness in summary.witnesses:
            print(f"  tainted {witness.display} in "
                  f"{witness.sink_method} "
                  f"(labels: {', '.join(sorted(witness.labels))})")

    # Exit codes: 2 = the run failed (an essential phase died or a hard
    # budget aborted it); 1 = issues found, or the run was only partial
    # (a clean bill of health from a degraded run is not trustworthy);
    # 0 = complete run, no issues.
    if result.failed or result.completeness == "failed":
        return 2
    if result.issues or result.completeness != "complete":
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
