"""SSA construction against its Cytron-style reference, on every method
the modeling pipeline converts, over every corpus the analyses run on
(the checks are ``tests.ssa.reference_ssa.differences``).  The model
library is converted once per process, when it is built, so each case
rebuilds it under the check."""

import copy

import pytest

from repro.bench.generator import scaling_corpus, summary_corpus
from repro.bench.micro import MICRO_CASES, MICRO_DESCRIPTORS, MOTIVATING
from repro.bench.securibench import CASES
from repro.bench.suite import generate_suite
from repro.modeling import pipeline, prepare, stdlib
from repro.ssa import to_ssa
from tests.ssa.reference_ssa import differences, reference_to_ssa


def micro_and_securibench():
    programs = [([MOTIVATING], None)]
    programs += [([src], MICRO_DESCRIPTORS.get(name))
                 for name, (src, _) in MICRO_CASES.items()]
    programs += [([src], None) for cases in CASES.values()
                 for src, _ in cases.values()]
    return programs


def generated(*apps):
    return [(app.sources, app.deployment_descriptor) for app in apps]


CORPORA = {
    "stdlib": lambda: [([], None)],
    "micro-securibench": micro_and_securibench,
    "table2-suite": lambda: generated(*generate_suite().values()),
    "scaling30": lambda: generated(scaling_corpus(30, seed=7)),
    "summary60": lambda: generated(summary_corpus(60, 96, 10)),
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_ssa_matches_reference(name, monkeypatch):
    mismatches, compared = [], []

    def checked_to_ssa(method):
        ref = copy.deepcopy(method)
        info = to_ssa(method)
        ref_info = reference_to_ssa(ref)
        compared.append(method.qname)
        for why in differences(method, info, ref, ref_info):
            mismatches.append(f"{method.qname}: {why}")
        return info

    monkeypatch.setattr(pipeline, "to_ssa", checked_to_ssa)
    monkeypatch.setattr(stdlib, "to_ssa", checked_to_ssa)
    stdlib.prepared_library.cache_clear()
    try:
        for sources, descriptor in CORPORA[name]():
            prepare(sources, descriptor)
        library = {method.qname for method in stdlib.load_stdlib().methods()}
    finally:
        # Later tests get a library built by the unpatched to_ssa.
        stdlib.prepared_library.cache_clear()
    assert library <= set(compared)
    assert not mismatches, mismatches[:10]

