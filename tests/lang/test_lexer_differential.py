"""The lexer against its character-at-a-time reference, over every corpus
the analyses run on: equal (kind, text, line, col) token streams."""

import pytest

from repro.bench.generator import scaling_corpus, summary_corpus
from repro.bench.micro import MICRO_CASES, MOTIVATING
from repro.bench.securibench import CASES
from repro.bench.suite import generate_suite
from repro.lang import tokenize
from repro.modeling.stdlib import STDLIB_SOURCE
from tests.lang.reference_lexer import reference_tokenize, token_fields


def micro_and_securibench():
    sources = [MOTIVATING]
    sources += [src for src, _ in MICRO_CASES.values()]
    sources += [src for cases in CASES.values()
                for src, _ in cases.values()]
    return sources


CORPORA = {
    "stdlib": lambda: [STDLIB_SOURCE],
    "micro-securibench": micro_and_securibench,
    "table2-suite": lambda: [src for app in generate_suite().values()
                             for src in app.sources],
    "scaling30": lambda: scaling_corpus(30, seed=7).sources,
    "summary60": lambda: summary_corpus(60, 96, 10).sources,
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_token_stream_matches_reference(name):
    for source in CORPORA[name]():
        assert token_fields(tokenize(source)) == \
            token_fields(reference_tokenize(source))
