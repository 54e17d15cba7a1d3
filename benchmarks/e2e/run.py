"""End-to-end benchmark: jlang source text to grouped report.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR]

For each workload, one after another, a fresh child process runs timed
passes as a closed loop (one ``TAJ(config).analyze_sources`` call at a
time) and/or traced passes that give the per-layer numbers; see
``measure.py``.  Every run's output is checked against
``expected.json``.  The script prints every metric by name with its
unit and sample count, ends with one JSON line, and exits non-zero if
any output is wrong.

``--trace 0`` runs timed passes only and reports the end-to-end
metrics; ``--trace 1`` runs traced passes and reports the per-layer
metrics; without ``--trace`` it does both and reports both.  The script
finds ``src/`` itself, so ``PYTHONPATH`` is optional.

``--write-expected`` re-records the pinned outcomes (seed 0) for the
selected workloads into ``--expected``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from stats import p90, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".e2e"

# Metric -> unit.  END_TO_END and PER_LAYER are the metrics the last
# JSON line carries (they mirror BENCHMARK.json); the rest are printed.
END_TO_END = {"setup_s": "s", "pass_s": "s", "run_p50_ms": "ms",
              "peak_rss_mb": "MB", "recall": "ratio", "precision": "ratio"}
PRINTED_ONLY = {"run_p90_ms": "ms", "failed_frac": "ratio"}
# run_p50_ms / run_p90_ms are taken over each (input, config)'s median
# run.  p90 needs >= 10 samples beyond it: only these workloads have
# >= 100 runs per pass.
P90_WORKLOADS = {"micro-corpus", "table2-suite"}
PER_LAYER = {
    "lang.lex_s": "s", "lang.parse_s": "s", "lang.lower_s": "s",
    "lang.tokens_per_s": "tokens/s",
    "modeling.stdlib_s": "s", "modeling.total_s": "s",
    "modeling.passes_s": "s", "modeling.split_gap_frac": "ratio",
    "ssa.build_s": "s",
    "pointer.solve_s": "s", "pointer.constraint_adding_s": "s",
    "pointer.constraint_solving_s": "s", "pointer.propagations": "count",
    "pointer.edges": "count", "pointer.nodes_processed": "count",
    "pointer.cycles_collapsed": "count", "callgraph.nodes": "count",
    "callgraph.truncated_runs": "count",
    "sdg.total_s": "s", "sdg.build_s": "s", "sdg.direct_edges_s": "s",
    "sdg.heap_graph_s": "s",
    "taint.sweep_s": "s", "taint.state_units": "count",
    "summaries.hits": "count", "summaries.misses": "count",
    "summaries.hit_ratio": "ratio",
    "reporting.build_s": "s",
    "trace.overhead_frac": "ratio", "trace.unattributed_s": "s",
}
# Printed and written to layers.json only: input sizes and outputs that
# no optimisation should move, and a time that is 0 outside the
# summary workload.
LAYER_PRINTED_ONLY = {
    "lang.tokens": "count", "ssa.methods": "count",
    "callgraph.edges": "count", "sdg.call_sites": "count",
    "taint.flows": "count", "taint.rules_consulted": "count",
    "taint.suppressed_by_length": "count", "summaries.prepare_s": "s",
    "reporting.issues": "count",
}

# setup_s: in each of SETUP_PROBES fresh processes, the wall of
# ``import repro`` plus the first-use excess of one analysis
# (measure.first_use_excess); the metric is the median.
SETUP_PROBES = 5
SETUP_PROBE = ("import sys, time\n"
               "sys.path[:0] = sys.argv[1:3]\n"
               "started = time.perf_counter()\n"
               "import repro\n"
               "wall = time.perf_counter() - started\n"
               "from measure import first_use_excess\n"
               "print(wall + first_use_excess(sys.argv[3], int(sys.argv[4]),"
               " sys.argv[5]))\n")


def parse_args(argv: Optional[List[str]], names: List[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", choices=names,
                        default=names, metavar="NAME",
                        help=f"workloads to run (default: all of "
                             f"{', '.join(names)})")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 reproduces the pinned inputs")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time per workload (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only, 1: per-layer only "
                             "(default: both)")
    parser.add_argument("--out", default=str(RUN_DIR / "out"),
                        help="traced-pass artifacts (Chrome trace and "
                             "layers.json per workload)")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="pinned outcomes to check against")
    parser.add_argument("--write-expected", action="store_true",
                        help="record the pinned outcomes instead")
    parser.add_argument("--inputs", type=int, metavar="N",
                        help="only the first N inputs of each workload "
                             "(smoke runs)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_main(args) -> int:
    """Measure one workload in this (fresh) process; print its payload
    as the last stdout line."""
    from measure import measure
    name = args.workload[0]
    pins: Dict = {}
    if not args.write_expected:
        with open(args.expected, encoding="utf-8") as handle:
            pins = json.load(handle).get(name, {})
    payload = measure(name, args.seed, args.seconds, args.trace, pins,
                      args.write_expected, args.out,
                      str(RUN_DIR / "work"), args.inputs)
    print(json.dumps(payload))
    return 0


def setup_probes(name: str, seed: int) -> List[float]:
    """Set-up seconds measured in each of SETUP_PROBES fresh processes."""
    command = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), name,
               str(seed), str(RUN_DIR / "work")]
    return [float(subprocess.run(command, check=True, stdout=subprocess.PIPE,
                                 text=True, timeout=120)
                  .stdout.strip().splitlines()[-1])
            for _ in range(SETUP_PROBES)]


def run_child(name: str, args) -> Dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--out", args.out,
               "--expected", args.expected]
    if args.trace is not None:
        command += ["--trace", str(args.trace)]
    if args.write_expected:
        command.append("--write-expected")
    if args.inputs:
        command += ["--inputs", str(args.inputs)]
    # Generous: a timed phase, a traced phase, and one pass of each
    # overrunning its budget.
    out = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                         text=True, timeout=3 * args.seconds + 300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def end_to_end(payload: Dict, setup: List[float]) -> Dict[str, Dict]:
    """Metric -> {value, q1, q3, n} from one child's payload."""
    metrics: Dict[str, Dict] = {}

    def put(name: str, value: float, n: int, q1=None, q3=None) -> None:
        metrics[name] = {"value": value, "q1": q1, "q3": q3, "n": n}

    def put_summary(name: str, values: List[float]) -> None:
        row = summarize(values)
        put(name, row["median"], row["n"], row["q1"], row["q3"])

    if setup:
        put_summary("setup_s", setup)
    # The median pass: each run's median over the passes, summed.  A
    # burst that slows one run of one pass moves it less than it moves
    # that pass's total; the quartiles are those of the pass totals.
    passes = summarize(payload["pass_s"])
    put("pass_s", sum(payload["run_median_s"]), passes["n"], passes["q1"],
        passes["q3"])
    run_ms = [seconds * 1e3 for seconds in payload["run_median_s"]]
    put_summary("run_p50_ms", run_ms)
    if payload["workload"] in P90_WORKLOADS:
        put("run_p90_ms", p90(run_ms), len(run_ms))
    put("peak_rss_mb", payload["peak_rss_mb"], 1)
    attempted = payload["attempted"]
    put("failed_frac", payload["wrong"] / attempted, attempted)
    tp, fp, fn = payload["tp"], payload["fp"], payload["fn"]
    scored = len(payload["pass_s"]) * payload["runs_per_pass"]
    put("recall", tp / (tp + fn) if tp + fn else 1.0, scored)
    put("precision", tp / (tp + fp) if tp + fp else 1.0, scored)
    return metrics


def print_block(payload: Dict, metrics: Dict[str, Dict]) -> None:
    name = payload["workload"]
    print(f"== {name}  seed={payload['seed']}  "
          f"{payload['runs_per_pass']} runs/pass  "
          f"timed passes={len(payload['pass_s'])}  "
          f"traced passes={payload['traced_passes']}  "
          f"runs checked={payload['attempted']}  "
          f"wrong={payload['wrong']}")
    units = {**END_TO_END, **PRINTED_ONLY}
    print(f"   {'metric':<30}{'unit':<10}{'value':>14}{'q1':>14}"
          f"{'q3':>14}{'n':>7}")
    for metric in units:
        row = metrics.get(metric)
        if row is None:
            continue
        quart = [f"{v:>14.6g}" if v is not None else f"{'':>14}"
                 for v in (row["q1"], row["q3"])]
        print(f"   {metric:<30}{units[metric]:<10}{row['value']:>14.6g}"
              f"{''.join(quart)}{row['n']:>7}")
    for key, seconds in payload.get("per_run_s", {}).items():
        print(f"   run median {key:<40}{seconds * 1e3:>10.1f} ms")
    layers = payload.get("layers")
    if layers:
        print(f"   per layer: median of {payload['traced_passes']} "
              f"traced pass(es), each summed over its runs")
        for metric, unit in {**PER_LAYER, **LAYER_PRINTED_ONLY}.items():
            print(f"   {metric:<30}{unit:<10}{layers[metric]:>14.6g}")
    for error in payload["errors"]:
        print(f"   WRONG {error}")


def write_pins(path: str, pins: Dict[str, Dict]) -> None:
    existing: Dict = {}
    if Path(path).is_file():
        with open(path, encoding="utf-8") as handle:
            existing = json.load(handle)
    existing.update(pins)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(existing, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    args = parse_args(argv, list(WORKLOADS))
    if args.write_expected:
        args.trace, args.seconds = 0, 0.0
    if args.child:
        return child_main(args)

    results: Dict[str, Dict] = {}
    pins: Dict[str, Dict] = {}
    attempted = wrong = 0
    correct = True
    for name in args.workload:
        timed = args.trace != 1 and not args.write_expected
        setup = setup_probes(name, args.seed) if timed else []
        payload = run_child(name, args)
        metrics = end_to_end(payload, setup)
        print_block(payload, metrics)
        attempted += payload["attempted"]
        wrong += payload["wrong"]
        correct = correct and not payload["errors"]
        shown: Dict[str, Dict] = {}
        if args.write_expected:
            pins[name] = payload["pins"]
        else:
            if args.trace != 1:
                shown.update({m: {"value": metrics[m]["value"], "unit": u}
                              for m, u in END_TO_END.items()})
            if args.trace != 0:
                shown.update({m: {"value": payload["layers"][m], "unit": u}
                              for m, u in PER_LAYER.items()})
        results[name] = shown
    if args.write_expected:
        write_pins(args.expected, pins)
        print(f"pinned {sum(len(v) for v in pins.values())} inputs of "
              f"{len(pins)} workload(s) into {args.expected}")
    metrics_out = (results[args.workload[0]] if len(args.workload) == 1
                   else results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": wrong, "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
