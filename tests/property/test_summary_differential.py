"""Corpus differential for the summary engine: on every micro +
securibench program, ``--strategy summary`` must find byte-identical
flows to the hybrid reference — cold (populating the cache), warm
in-memory (same backend, second run), and warm from disk (a fresh
backend over the populated directory, the cross-process shape).

One cache directory is shared across the whole corpus, so the sweep
also exercises cross-program key isolation: a hit may only come from
an identical (method IR, callee environment, rule) — never from a
similarly named method of another program.

The kernel differential for the other strategies' pipeline lives in
``test_kernel_differential.py``; this file pins the third engine.
"""

import pytest

from repro.bounds import Budget
from repro.bench.micro import MICRO_CASES, MOTIVATING
from repro.bench.securibench import CASES
from repro.modeling import default_natives, prepare
from repro.pointer import ChaoticOrder, ContextPolicy, PointerAnalysis
from repro.pointer.heapgraph import HeapGraph
from repro.sdg.hsdg import DirectEdges
from repro.sdg.noheap import NoHeapSDG
from repro.summaries import SummaryBackend
from repro.taint import TaintEngine, default_rules


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


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("summary-cache"))


def build_pieces(source):
    prepared = prepare([source])
    analysis = PointerAnalysis(prepared.program, ContextPolicy(),
                               natives=default_natives(),
                               order=ChaoticOrder())
    analysis.solve()
    sdg = NoHeapSDG(prepared.program, analysis.call_graph)
    return sdg, DirectEdges(sdg, analysis), HeapGraph(analysis)


def run(pieces, strategy, backend=None):
    sdg, direct, heap = pieces
    if backend is not None:
        backend.prepare(sdg)
    engine = TaintEngine(sdg, direct, heap, default_rules(), Budget(),
                         strategy=strategy, summary_backend=backend)
    return engine.run()


@pytest.mark.parametrize("name,source", CORPUS, ids=CORPUS_IDS)
def test_summary_flows_match_hybrid(name, source, cache_dir):
    pieces = build_pieces(source)
    ref = run(pieces, "hybrid")
    ref_keys = [f.sort_key() for f in ref.flows]

    backend = SummaryBackend(cache_dir)
    cold = run(pieces, "summary", backend)
    assert [f.sort_key() for f in cold.flows] == ref_keys, name
    assert cold.completed_rules == ref.completed_rules, name

    warm = run(pieces, "summary", backend)
    assert [f.sort_key() for f in warm.flows] == ref_keys, name

    fresh = SummaryBackend(cache_dir)
    warm2 = run(pieces, "summary", fresh)
    assert [f.sort_key() for f in warm2.flows] == ref_keys, name
    assert warm2.completed_rules == ref.completed_rules, name
