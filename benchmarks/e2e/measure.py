"""One workload, measured inside one fresh process.

Timed passes call ``TAJ(config).analyze_sources(sources, descriptor)``
exactly as a library user does, one analysis at a time, with a
``gc.collect()`` before each and GC left enabled.  Only that call is
inside the timed interval; checking the output against the pinned
outcome happens after it.

Traced passes give the per-layer numbers.  Around each analysis the
benchmark records its own spans: an outside split of the frontend
(``split.stdlib``, ``split.lex``, ``split.parse``, ``split.lower``,
calling the same public functions ``modeling.prepare`` calls) and
``e2e.analyze`` around the TAJ call, whose children are the spans the
program already emits into the ``Observability`` bundle it is given.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from repro import TAJ, Observability, TAJResult
from repro.bench.micro import MOTIVATING
from repro.lang import Lowerer, tokenize
from repro.lang.parser import Parser
from repro.modeling.stdlib import load_stdlib
from repro.obs import Tracer, write_chrome_trace
from repro.taint.flows import canonical_flows

from stats import summarize
from workloads import WORKLOADS, Run

# The traced pass fails when the outside frontend split disagrees with
# the program's own modeling.lower span by more than this share.
MAX_SPLIT_GAP = 0.15

# In-program span name -> layer, for layers.json; unlisted names map by
# their first dotted component through LAYER_PREFIX.
LAYER_OF = {
    "modeling.lower": "lang", "modeling.ssa": "ssa",
    "phase.modeling": "modeling", "phase.pointer_analysis": "pointer",
    "phase.sdg": "sdg", "phase.taint": "taint",
    "phase.summarize": "summaries", "phase.reporting": "reporting",
}
LAYER_PREFIX = {"e2e": "bench", "callgraph": "pointer", "summary": "summaries",
                "report": "reporting"}

# Registry counters and gauges summed per pass: metric -> registry name.
COUNTERS = {
    "pointer.propagations": "pointer.propagations",
    "pointer.edges": "pointer.edges",
    "pointer.nodes_processed": "pointer.nodes_processed",
    "pointer.cycles_collapsed": "pointer.cycles_collapsed",
    "taint.flows": "taint.flows",
    "taint.rules_consulted": "taint.rules_consulted",
    "taint.suppressed_by_length": "taint.suppressed_by_length",
    "summaries.hits": "summary.cache.hits",
    "summaries.misses": "summary.cache.misses",
    "reporting.issues": "report.issues",
}
GAUGES = {
    "callgraph.nodes": "callgraph.nodes",
    "callgraph.edges": "callgraph.edges",
    "sdg.call_sites": "sdg.call_sites",
    "taint.state_units": "taint.state_units",
}
# Per-layer metric -> the span whose summed duration it is.
SPAN_TIMES = {
    "lang.lex_s": "split.lex", "lang.parse_s": "split.parse",
    "lang.lower_s": "split.lower", "modeling.stdlib_s": "split.stdlib",
    "modeling.total_s": "phase.modeling", "ssa.build_s": "modeling.ssa",
    "pointer.solve_s": "phase.pointer_analysis",
    "pointer.constraint_adding_s": "pointer.constraint_adding",
    "pointer.constraint_solving_s": "pointer.constraint_solving",
    "sdg.total_s": "phase.sdg", "sdg.build_s": "sdg.build",
    "sdg.direct_edges_s": "sdg.direct_edges",
    "sdg.heap_graph_s": "sdg.heap_graph",
    "summaries.prepare_s": "phase.summarize",
    "reporting.build_s": "phase.reporting",
}


def flow_digest(result: TAJResult) -> str:
    """SHA-256 of the run's canonical flow listing."""
    listing = "\n".join(repr(flow.sort_key())
                        for flow in canonical_flows(result.flows))
    return hashlib.sha256(listing.encode("utf-8")).hexdigest()


class Checker:
    """Checks every run's outcome: digest, completeness, issue count.

    Where the run's input equals the pinned input, the flow digest must
    equal the pinned one; for a generated input the seed changed, every
    pass must reproduce the digest of this process's first analysis of
    it.  The completeness label and issue count are pinned either way.
    With ``record`` the first outcome of each run becomes its pin.
    """

    def __init__(self, workload: str, pins: Dict, record: bool) -> None:
        self.workload = workload
        self.pins = pins
        self.record = record
        self.seen: Dict[Tuple[str, str], str] = {}
        self.errors: List[str] = []
        self.attempted = self.wrong = 0
        self.tp = self.fp = self.fn = 0

    def check(self, run: Run, result: Optional[TAJResult],
              error: Optional[BaseException] = None,
              scored: bool = False) -> None:
        """Check one run; ``scored`` runs also count toward recall and
        precision (the timed passes, so every run weighs the same)."""
        self.attempted += 1
        where = f"({self.workload}, {run.input_id}, {run.config.name})"
        problems = self._problems(run, result, error)
        if problems:
            self.wrong += 1
            self.errors.append(f"{where}: " + "; ".join(problems))
        if scored and result is not None:
            tp, fp, fn = run.truth(result)
            self.tp += tp
            self.fp += fp
            self.fn += fn

    def _problems(self, run: Run, result: Optional[TAJResult],
                  error: Optional[BaseException]) -> List[str]:
        if error is not None:
            return [f"raised {type(error).__name__}: {error}"]
        key = (run.input_id, run.config.name)
        outcome = {"input": run.input_digest(), "digest": flow_digest(result),
                   "completeness": result.completeness,
                   "issues": result.issues}
        first = self.seen.setdefault(key, outcome["digest"])
        problems = []
        if outcome["digest"] != first:
            problems.append("flow digest differs between passes")
        if self.record:
            self.pins.setdefault(run.input_id, {}).setdefault(
                run.config.name, outcome)
        pin = self.pins.get(run.input_id, {}).get(run.config.name)
        if pin is None:
            return problems + ["no pinned outcome"]
        for field in ("completeness", "issues"):
            if outcome[field] != pin[field]:
                problems.append(f"{field} {outcome[field]!r} != pinned "
                                f"{pin[field]!r}")
        if outcome["input"] == pin["input"] and \
                outcome["digest"] != pin["digest"]:
            problems.append(f"flow digest {outcome['digest'][:12]} != "
                            f"pinned {pin['digest'][:12]}")
        return problems


def timed_run(run: Run, workdir: str, checker: Checker) -> float:
    """One closed-loop analysis; returns its wall seconds."""
    config = run.config_in(workdir)
    gc.collect()
    started = time.perf_counter()
    try:
        result = TAJ(config).analyze_sources(run.sources, run.descriptor)
    except Exception as exc:  # a wrong run is counted, not fatal
        elapsed = time.perf_counter() - started
        checker.check(run, None, exc, scored=True)
        return elapsed
    elapsed = time.perf_counter() - started
    checker.check(run, result, scored=True)
    return elapsed


def first_use_excess(workload: str, seed: int, work_root: str,
                     repeats: int = 5) -> float:
    """Seconds the first analysis in this process costs beyond steady
    state: the Figure-1 program under the workload's first
    configuration, first run minus the median of ``repeats`` more.

    A small fixed program keeps this cheap and steady on every
    workload; the configuration still reaches workload-specific lazy
    set-up, such as the summary engine's.
    """
    config = WORKLOADS[workload](seed)[0].config
    probe = Run("Motivating", config, [MOTIVATING], None, truth=None)
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=work_root)
    walls = []
    try:
        for index in range(repeats + 1):
            # Each run gets its own directory, so every run does the
            # same (cold-cache) work.
            run_config = probe.config_in(os.path.join(workdir, str(index)))
            gc.collect()
            started = time.perf_counter()
            TAJ(run_config).analyze_sources(probe.sources)
            walls.append(time.perf_counter() - started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return max(0.0, walls[0] - statistics.median(walls[1:]))


def frontend_split(sources: List[str], tracer: Tracer) -> None:
    """The frontend work ``modeling.lower`` covers, one public call per
    span: stdlib load, then lex / parse / register per unit, then
    lowering."""
    with tracer.span("split.stdlib"):
        program = load_stdlib()
    lowerer = Lowerer(program)
    for source in sources:
        with tracer.span("split.lex") as span:
            tokens = tokenize(source)
            span.set(tokens=len(tokens))
        with tracer.span("split.parse"):
            unit = Parser(tokens).parse_unit()
        with tracer.span("split.lower"):
            lowerer.add_unit(unit)
    with tracer.span("split.lower"):
        lowerer.lower_all()


def traced_pass(runs: List[Run], workdir: str, checker: Checker
                ) -> Tuple[Tracer, Dict[str, float]]:
    """One pass with every run traced; returns the tracer and the
    pass's registry counters and gauges summed over its runs."""
    tracer = Tracer()
    sums = {name: 0.0 for name in list(COUNTERS) + list(GAUGES)}
    for run in runs:
        config = run.config_in(workdir)
        gc.collect()
        with tracer.span("e2e.run", input=run.input_id,
                         config=config.name):
            with tracer.span("e2e.frontend_split"):
                frontend_split(run.sources, tracer)
            # The split's program is garbage now; collect it here, not
            # inside the analysis it would otherwise slow down.
            gc.collect()
            try:
                with tracer.span("e2e.analyze"):
                    result = TAJ(config, obs=Observability(tracer=tracer)) \
                        .analyze_sources(run.sources, run.descriptor)
            except Exception as exc:  # a wrong run is counted, not fatal
                checker.check(run, None, exc)
                continue
        checker.check(run, result)
        for metric, name in COUNTERS.items():
            sums[metric] += result.metrics["counters"].get(name, 0)
        for metric, name in GAUGES.items():
            sums[metric] += result.metrics["gauges"].get(name, 0)
    return tracer, sums


def span_totals(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Span name -> count, summed duration and summed self time."""
    out: Dict[str, Dict[str, float]] = {}
    for span, _ in tracer.iter_spans():
        row = out.setdefault(span.name,
                             {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.duration
        row["self_s"] += span.duration - sum(child.duration
                                             for child in span.children)
    return out


def layer_of(name: str) -> str:
    if name in LAYER_OF:
        return LAYER_OF[name]
    prefix = name.split(".", 1)[0]
    return LAYER_PREFIX.get(prefix, prefix)


def layer_totals(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Layer -> total (its outermost spans) and self time: the self
    times of all its spans, i.e. the total minus what spans of other
    layers nested inside it cover."""
    out: Dict[str, Dict[str, float]] = {}
    for span, _ in tracer.iter_spans():
        layer = layer_of(span.name)
        row = out.setdefault(layer, {"total_s": 0.0, "self_s": 0.0})
        if span.parent is None or layer_of(span.parent.name) != layer:
            row["total_s"] += span.duration
        row["self_s"] += span.duration - sum(child.duration
                                             for child in span.children)
    return out


def layer_metrics(tracer: Tracer, sums: Dict[str, float],
                  timed_pass_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    spans = span_totals(tracer)

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    values = {metric: total(name) for metric, name in SPAN_TIMES.items()}
    values.update(sums)
    tokens = sum(span.attrs.get("tokens", 0)
                 for span in tracer.find("split.lex"))
    values["lang.tokens"] = tokens
    values["lang.tokens_per_s"] = tokens / (values["lang.lex_s"] +
                                            values["lang.parse_s"])
    values["modeling.passes_s"] = sum(
        row["total_s"] for name, row in spans.items()
        if name.startswith("modeling.")
        and name not in ("modeling.lower", "modeling.ssa"))
    split = sum(values[m] for m in ("lang.lex_s", "lang.parse_s",
                                    "lang.lower_s", "modeling.stdlib_s"))
    lowered = total("modeling.lower")
    values["modeling.split_gap_frac"] = abs(split - lowered) / lowered
    values["ssa.methods"] = sum(span.attrs.get("methods", 0)
                                for span in tracer.find("modeling.ssa"))
    values["callgraph.truncated_runs"] = sum(
        1 for span in tracer.find("phase.pointer_analysis")
        if span.attrs.get("truncated"))
    values["taint.sweep_s"] = total("phase.taint") - total("phase.summarize")
    lookups = values["summaries.hits"] + values["summaries.misses"]
    values["summaries.hit_ratio"] = (values["summaries.hits"] / lookups
                                     if lookups else 0.0)
    values["trace.overhead_frac"] = total("e2e.analyze") / timed_pass_s - 1
    values["trace.unattributed_s"] = spans.get("e2e.analyze",
                                               {}).get("self_s", 0.0)
    return values


def limit_inputs(runs: List[Run], count: Optional[int]) -> List[Run]:
    """The runs of the first ``count`` distinct inputs, in pass order."""
    if not count:
        return runs
    keep: List[str] = []
    for run in runs:
        if run.input_id not in keep and len(keep) < count:
            keep.append(run.input_id)
    return [run for run in runs if run.input_id in keep]


def measure(workload: str, seed: int, seconds: float, trace: Optional[int],
            pins: Dict, record: bool, out_dir: str, work_root: str,
            inputs: Optional[int] = None) -> Dict:
    """Measure one workload; ``trace`` 0 = timed passes only, 1 = one
    timed pass then traced passes for ``seconds``, None = timed passes
    for ``seconds`` then one traced pass."""
    runs = limit_inputs(WORKLOADS[workload](seed), inputs)
    checker = Checker(workload, pins, record)
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    passes = itertools.count()

    def fresh_dir() -> str:
        path = os.path.join(workdir, f"pass{next(passes)}")
        os.makedirs(path)
        return path

    def timed_pass() -> List[float]:
        path = fresh_dir()
        times = [timed_run(run, path, checker) for run in runs]
        shutil.rmtree(path)
        return times

    def one_traced_pass():
        path = fresh_dir()
        traced = traced_pass(runs, path, checker)
        shutil.rmtree(path)
        return traced

    # Budgets count measured seconds: timed analyses for the timed
    # passes (so checking outputs does not cost a pass), wall time for
    # the traced ones.  A pass that starts within budget completes.
    timed: List[List[float]] = []
    traced: List = []
    try:
        while not timed or sum(map(sum, timed)) < (
                0 if trace == 1 else seconds):
            timed.append(timed_pass())
        started = time.perf_counter()
        while trace != 0 and (not traced or time.perf_counter() - started
                              < (seconds if trace == 1 else 0)):
            traced.append(one_traced_pass())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pass_s = [sum(times) for times in timed]
    payload = {
        "workload": workload, "seed": seed, "runs_per_pass": len(runs),
        "pass_s": pass_s,
        # Each run's median over the passes: a typical analysis of that
        # (input, config), robust to bursts on a shared host.
        "run_median_s": [statistics.median(times[i] for times in timed)
                         for i in range(len(runs))],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "traced_passes": len(traced),
    }
    if len(runs) <= 8:
        payload["per_run_s"] = {
            f"{run.input_id}/{run.config.name}": median
            for run, median in zip(runs, payload["run_median_s"])}
    if traced:
        median_pass = sum(payload["run_median_s"])
        per_pass = [layer_metrics(tracer, sums, median_pass)
                    for tracer, sums in traced]
        layers = {name: statistics.median(values[name]
                                          for values in per_pass)
                  for name in per_pass[0]}
        payload["layers"] = layers
        gap = layers["modeling.split_gap_frac"]
        if gap > MAX_SPLIT_GAP:
            checker.errors.append(
                f"({workload}, traced passes): modeling.split_gap_frac "
                f"{gap:.3f} > {MAX_SPLIT_GAP}")
        write_artifacts(workload, seed, out_dir, traced[0][0], layers)
    payload.update(attempted=checker.attempted, wrong=checker.wrong,
                   errors=checker.errors, tp=checker.tp, fp=checker.fp,
                   fn=checker.fn)
    if record:
        payload["pins"] = pins
    return payload


def write_artifacts(workload: str, seed: int, out_dir: str, tracer: Tracer,
                    metrics: Dict[str, float]) -> None:
    """The first traced pass as a Chrome trace, and ``layers.json``:
    per-layer and per-span totals and self times of that same pass,
    plus the per-layer metrics (medians over all traced passes)."""
    target = os.path.join(out_dir, workload)
    os.makedirs(target, exist_ok=True)
    write_chrome_trace(tracer, os.path.join(target, "trace.json"),
                       {"workload": workload, "seed": seed})
    layers = layer_totals(tracer)
    analyze_s = sum(span.duration for span in tracer.find("e2e.analyze"))
    for name, row in layers.items():
        if name not in ("bench", "split"):
            row["share_of_analysis"] = row["self_s"] / analyze_s
    payload = {"workload": workload, "seed": seed,
               "analysis_s": analyze_s, "layers": layers,
               "spans": span_totals(tracer), "metrics": metrics}
    with open(os.path.join(target, "layers.json"), "w",
              encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
