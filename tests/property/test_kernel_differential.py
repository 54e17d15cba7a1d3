"""Corpus differential: the bitset kernel against the preserved seed
solver, and the rule sweep against isolated per-rule runs, over the
micro + securibench corpora.

Three contracts, each on every corpus program:

* **points-to** — the bitset-int kernel
  (:class:`repro.pointer.PointerAnalysis`) computes bit-for-bit the same
  points-to relation as the preserved seed solver
  (:class:`repro.pointer.SeedPointerAnalysis`);
* **per-rule flows** — the full taint pipeline (SDG, direct edges, heap
  graph, hybrid slicing) run over either solver finds the identical
  per-rule flow sets, so the representation change never reaches a
  report;
* **rule isolation** — the sweep reuses one slicer and one carrier
  cache for every rule, yet each strategy (hybrid, CI, CS) finds
  exactly the flows, in the same canonical order and with the same
  length / heap-transition metadata, that each rule finds when swept
  alone on freshly built pieces: no rule sees another rule's state.

The hypothesis-driven random-program differential lives in
``test_differential.py``; this file pins the fixed corpora the
benchmarks (and the paper's evaluation) run on.
"""

import pytest

from repro.bounds import Budget
from repro.bench.micro import MICRO_CASES, MOTIVATING
from repro.bench.securibench import CASES
from repro.modeling import default_natives, prepare
from repro.pointer import (ChaoticOrder, ContextPolicy, PointerAnalysis,
                           SeedPointerAnalysis)
from repro.pointer.heapgraph import HeapGraph
from repro.sdg.hsdg import DirectEdges
from repro.sdg.noheap import NoHeapSDG
from repro.taint import RuleSet, TaintEngine, canonical_flows, default_rules


def corpus():
    programs = [("micro:motivating", MOTIVATING)]
    programs += [(f"micro:{name}", src)
                 for name, (src, _) in MICRO_CASES.items()]
    for cat, cases in CASES.items():
        programs += [(f"securibench:{cat}:{name}", src)
                     for name, (src, _) in cases.items()]
    return programs


CORPUS = corpus()
CORPUS_IDS = [name for name, _ in CORPUS]


def solve_with(cls, prepared):
    analysis = cls(prepared.program, ContextPolicy(),
                   natives=default_natives(), order=ChaoticOrder())
    analysis.solve()
    return analysis


def canonical_solution(analysis):
    return {str(key): frozenset(str(ik) for ik in pts)
            for key, pts in analysis.iter_pts() if pts}


def flows_by_rule(analysis, prepared):
    sdg = NoHeapSDG(prepared.program, analysis.call_graph)
    engine = TaintEngine(sdg, DirectEdges(sdg, analysis),
                         HeapGraph(analysis), default_rules(), Budget())
    result = engine.run()
    out = {}
    for flow in result.flows:
        out.setdefault(flow.rule, set()).add(
            (str(flow.source), str(flow.sink), flow.sink_display,
             str(flow.lcp), flow.length, flow.via_carrier))
    return out


@pytest.mark.parametrize("name,source", CORPUS, ids=CORPUS_IDS)
def test_bitset_kernel_and_flows_match_seed(name, source):
    prepared = prepare([source])
    seed = solve_with(SeedPointerAnalysis, prepared)
    optimized = solve_with(PointerAnalysis, prepared)
    assert canonical_solution(optimized) == canonical_solution(seed), name
    assert flows_by_rule(optimized, prepared) == \
        flows_by_rule(seed, prepared), name



def sweep(analysis, prepared, rules, strategy):
    sdg = NoHeapSDG(prepared.program, analysis.call_graph)
    engine = TaintEngine(sdg, DirectEdges(sdg, analysis),
                         HeapGraph(analysis), rules, Budget(),
                         strategy=strategy)
    return engine.run()


@pytest.mark.parametrize("strategy", ["hybrid", "ci", "cs"])
@pytest.mark.parametrize("name,source", CORPUS, ids=CORPUS_IDS)
def test_sweep_matches_isolated_rule_runs(name, source, strategy):
    prepared = prepare([source])
    analysis = solve_with(PointerAnalysis, prepared)
    rules = default_rules()
    whole = sweep(analysis, prepared, rules, strategy)
    assert whole.completed_rules == [rule.name for rule in rules], name
    isolated = []
    for rule in rules:
        alone = sweep(analysis, prepared, RuleSet([rule]), strategy)
        assert alone.completed_rules == [rule.name], (name, rule.name)
        isolated.extend(alone.flows)
    assert [f.sort_key() for f in canonical_flows(isolated)] == \
        [f.sort_key() for f in whole.flows], (name, strategy)
