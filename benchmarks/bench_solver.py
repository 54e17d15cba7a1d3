"""Solver-kernel benchmark: times the pointer kernel and the taint sweep.

Times :class:`repro.pointer.PointerAnalysis` (interned pointer keys,
coalescing worklist, bitset points-to sets — see
``docs/performance.md``) over three suites, and the serial taint sweep
over securibench.  The ``cyclic`` suite's copy cycles keep the
committed ledger baseline's counters.  The seed solver it replaced is a test oracle only
(``tests/pointer/reference_solver.py``); the tier-1 differential tests,
not this script, check that both reach the same fixpoint.

Two entry points:

* **script** — ``PYTHONPATH=src python benchmarks/bench_solver.py``
  runs the full suites, prints a summary, and writes the machine-
  readable artifact ``BENCH_solver.json`` at the repository root.
  ``--quick`` trims each suite for CI smoke runs; ``--out`` redirects
  the artifact.
* **pytest-benchmark** — ``pytest benchmarks/bench_solver.py`` measures
  the kernel over the micro suite.

``--ledger FILE`` additionally appends one ``kind="bench"`` run-ledger
record (:mod:`repro.obs.ledger`): per-suite kernel walls as the
"phases", the deterministic work counters, and the host fingerprint.
The regression sentinel (``benchmarks/regression.py``) diffs the newest
record against the accumulated history.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script mode
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.micro import MICRO_CASES, MOTIVATING, cyclic_stress
from repro.bench.securibench import CASES
from repro.bench.harness import write_bench_json
from repro.bounds import Budget
from repro.obs.ledger import (append_record, corpus_hash, make_record,
                              sha256_fingerprint)
from repro.modeling import default_natives, prepare
from repro.obs import Observability
from repro.pointer import ChaoticOrder, ContextPolicy, PointerAnalysis
from repro.pointer.heapgraph import HeapGraph
from repro.sdg.hsdg import DirectEdges
from repro.sdg.noheap import NoHeapSDG
from repro.taint import TaintEngine, default_rules

REPEATS = 5
# Kernel counters summed per suite into the artifact.
STATS = ("edges", "propagations", "coalesced_deltas")
# Top-level artifact keys other benchmarks own (summary_cache.py,
# confirmation.py merge their rows in); a rewrite keeps them.
MERGED_KEYS = ("confirmation", "summary_cache")


def suite_sources(quick: bool = False) -> Dict[str, List[List[str]]]:
    """Suite name -> list of programs (each a list of sources)."""
    micro = [[MOTIVATING]] + [[src] for src, _ in MICRO_CASES.values()]
    securibench = [[src] for cat in CASES.values()
                   for src, _ in cat.values()]
    cyclic = [[cyclic_stress(12, 30)], [cyclic_stress(16, 60)],
              [cyclic_stress(24, 48, depth=8)]]
    if quick:
        micro, securibench, cyclic = micro[:6], securibench[:6], cyclic[:1]
    return {"micro": micro, "securibench": securibench, "cyclic": cyclic}


def run_solver(prepared, repeats: int = REPEATS, obs=None):
    """Best-of-``repeats`` solve; returns (solver, best_seconds)."""
    best = None
    for _ in range(repeats):
        pa = PointerAnalysis(prepared.program, ContextPolicy(),
                             natives=default_natives(),
                             order=ChaoticOrder(), obs=obs)
        t0 = time.perf_counter()
        pa.solve()
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return pa, best


def bench_suite(programs: List[List[str]],
                repeats: int = REPEATS) -> Dict[str, object]:
    """Time the kernel over a suite; returns the suite's metrics.

    One :class:`Observability` registry is shared across the suite's
    runs so the artifact carries the aggregate counters, worklist-depth
    peaks, and points-to-set-size percentiles under the
    ``metrics_registry`` key.
    """
    prepareds = [prepare(srcs) for srcs in programs]
    obs = Observability()
    metrics: Dict[str, object] = {"wall_s": 0.0, "nodes": 0}
    metrics.update(dict.fromkeys(STATS, 0))
    degraded_runs = 0
    for prepared in prepareds:
        pa, t = run_solver(prepared, repeats, obs=obs)
        if pa.truncated:
            degraded_runs += 1
        metrics["wall_s"] += t
        metrics["nodes"] += sum(1 for _ in pa.iter_pts_bits())
        for stat in STATS:
            metrics[stat] += pa.stats[stat]
    metrics["wall_s"] = round(metrics["wall_s"], 4)
    # Counters aggregate over programs x repeats; the timer histograms
    # get one sample per solve, which is what makes p50/p95 meaningful.
    metrics["metrics_registry"] = obs.metrics.snapshot()
    # Resilience record (docs/robustness.md): numbers from a degraded
    # (budget/deadline-truncated) solve are not comparable to complete
    # ones, so the artifact says which kind this suite produced.
    metrics["completeness"] = ("complete" if degraded_runs == 0
                               else "partial-budget")
    metrics["degraded_runs"] = degraded_runs
    return metrics


def bench_taint_sweep(repeats: int = 3) -> Dict[str, object]:
    """The serial per-rule taint sweep over securibench.

    One pointer solve and one SDG are built; only the engine sweep is
    timed (best of ``repeats``).  The ledger keeps its wall as the
    ``taint.serial_sweep`` phase and its flow count as the
    ``taint.flows`` counter.
    """
    sources = [src for cat in CASES.values() for src, _ in cat.values()]
    prepared = prepare(sources)
    analysis, _ = run_solver(prepared, repeats=1)
    sdg = NoHeapSDG(prepared.program, analysis.call_graph)
    direct = DirectEdges(sdg, analysis)
    heap = HeapGraph(analysis)
    best, result = None, None
    for _ in range(repeats):
        engine = TaintEngine(sdg, direct, heap, default_rules(), Budget())
        t0 = time.perf_counter()
        result = engine.run()
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return {
        "programs": len(sources),
        "rules": len(list(default_rules())),
        "flows": len(result.flows),
        "wall_s": round(best, 4),
    }


def run_bench(quick: bool = False,
              repeats: int = REPEATS) -> Dict[str, Dict]:
    payload: Dict[str, Dict] = {"suites": {}}
    for name, programs in suite_sources(quick).items():
        payload["suites"][name] = bench_suite(programs, repeats)
        payload["suites"][name]["programs"] = len(programs)
    payload["taint_sweep"] = bench_taint_sweep(repeats=1 if quick else 3)
    payload["meta"] = {
        "quick": quick,
        "repeats": repeats,
        "python": "%d.%d" % sys.version_info[:2],
    }
    return payload


def ledger_record(payload: Dict, quick: bool, repeats: int,
                  commit: str = None) -> Dict:
    """One ``kind="bench"`` run-ledger record for a suite sweep.

    The "phases" are the per-suite kernel walls (plus the taint
    sweep wall), so the sentinel names the regressed *suite*; the
    counters are the deterministic work measures, gated regardless of
    host.
    """
    phases: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    complete = True
    for name, m in payload["suites"].items():
        phases[f"suite.{name}"] = m["wall_s"]
        counters[f"{name}.propagations"] = m["propagations"]
        counters[f"{name}.edges"] = m["edges"]
        complete = complete and m["completeness"] == "complete"
    sweep = payload.get("taint_sweep")
    if sweep:
        phases["taint.serial_sweep"] = sweep["wall_s"]
        counters["taint.flows"] = sweep["flows"]
    sources = [src for programs in suite_sources(quick).values()
               for srcs in programs for src in srcs]
    return make_record(
        kind="bench",
        config_name="bench_solver" + ("-quick" if quick else ""),
        fingerprint=sha256_fingerprint({"quick": quick,
                                        "repeats": repeats}),
        corpus={"hash": corpus_hash(sources), "files": len(sources)},
        phases=phases,
        seconds=sum(phases.values()),
        counters=counters,
        completeness="complete" if complete else "partial-budget",
        commit=commit,
    )


def format_summary(payload: Dict) -> str:
    lines = [f"{'suite':<12}{'programs':>9}{'wall(s)':>9}"
             f"{'propagations':>14}{'edges':>8}"]
    for name, m in payload["suites"].items():
        lines.append(
            f"{name:<12}{m['programs']:>9}{m['wall_s']:>9.3f}"
            f"{m['propagations']:>14}{m['edges']:>8}")
    sweep = payload.get("taint_sweep")
    if sweep:
        lines.append(
            f"\ntaint sweep (securibench, {sweep['rules']} rules, "
            f"{sweep['flows']} flows): {sweep['wall_s']:.3f}s")
    return "\n".join(lines)


# -- pytest-benchmark mode ----------------------------------------------------

def test_solver_kernel_throughput(benchmark):
    """pytest-benchmark hook: the kernel over the micro suite."""
    prepareds = [prepare(srcs)
                 for srcs in suite_sources(quick=True)["micro"]]

    def solve_all():
        total = 0
        for prepared in prepareds:
            pa = PointerAnalysis(prepared.program, ContextPolicy(),
                                 natives=default_natives(),
                                 order=ChaoticOrder())
            pa.solve()
            total += pa.stats["propagations"]
        return total

    assert benchmark(solve_all) > 0


# -- script mode --------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the pointer solver kernel and the taint "
                    "sweep.")
    parser.add_argument("--quick", action="store_true",
                        help="trimmed suites (CI smoke)")
    parser.add_argument("--repeats", type=int, default=REPEATS,
                        help=f"best-of-N timing (default {REPEATS})")
    parser.add_argument("--out", default=str(REPO_ROOT /
                                             "BENCH_solver.json"),
                        help="artifact path (default: repo root)")
    parser.add_argument("--ledger", metavar="FILE",
                        help="append one kind=\"bench\" run-ledger "
                             "record (JSONL); diff history with "
                             "benchmarks/regression.py")
    parser.add_argument("--commit", metavar="SHA",
                        help="VCS commit id recorded in the ledger "
                             "entry")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    payload = run_bench(quick=args.quick, repeats=args.repeats)
    print(format_summary(payload))
    target = Path(args.out)
    if target.exists():
        try:
            existing = json.loads(target.read_text(encoding="utf-8"))
        except ValueError:
            existing = {}
        for key in MERGED_KEYS:
            if key in existing:
                payload[key] = existing[key]
    write_bench_json(args.out, payload)
    print(f"\nwrote {args.out}")
    if args.ledger:
        append_record(args.ledger,
                      ledger_record(payload, quick=args.quick,
                                    repeats=args.repeats,
                                    commit=args.commit))
        print(f"appended ledger record to {args.ledger}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
