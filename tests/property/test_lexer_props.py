"""Property-based tests for the lexer."""

import string

from hypothesis import given, settings, strategies as st

from repro.lang import LexError, tokenize
from repro.lang.lexer import KEYWORDS, SYMBOLS
from tests.lang.reference_lexer import Lexer, token_fields

identifiers = st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]{0,10}",
                            fullmatch=True).filter(
                                lambda s: s not in KEYWORDS)
numbers = st.integers(min_value=0, max_value=10 ** 9).map(str)
string_bodies = st.text(
    alphabet=st.characters(
        codec="ascii", exclude_characters='"\\\n\r'),
    max_size=20)


@given(identifiers)
def test_identifier_round_trips(name):
    toks = tokenize(name)
    assert toks[0].kind == "id"
    assert toks[0].text == name
    assert toks[1].kind == "eof"


@given(numbers)
def test_number_round_trips(text):
    toks = tokenize(text)
    assert toks[0].kind == "int"
    assert toks[0].text == text


@given(string_bodies)
def test_string_literal_round_trips(body):
    toks = tokenize(f'"{body}"')
    assert toks[0].kind == "string"
    assert toks[0].text == body


@given(st.lists(identifiers, min_size=1, max_size=8))
def test_whitespace_variations_do_not_change_tokens(names):
    tight = " ".join(names)
    loose = "\n\t ".join(names)
    assert [t.text for t in tokenize(tight)] == \
        [t.text for t in tokenize(loose)]


@given(st.text(alphabet=string.printable, max_size=40))
@settings(max_examples=200)
def test_lexer_terminates_on_arbitrary_input(text):
    """The lexer either tokenizes or raises LexError — never hangs or
    crashes with an unexpected exception.  (Regression: identifiers at
    EOF used to loop forever.)"""
    try:
        toks = tokenize(text)
        assert toks[-1].kind == "eof"
    except LexError:
        pass


@given(st.lists(st.sampled_from(sorted(KEYWORDS)), min_size=1,
                max_size=6))
def test_keywords_always_lex_as_keywords(words):
    toks = tokenize(" ".join(words))
    assert all(t.kind == "kw" for t in toks[:-1])


@given(identifiers, identifiers)
def test_comments_are_invisible(a, b):
    toks = tokenize(f"{a} /* {b} */ // {b}\n")
    assert [t.text for t in toks[:-1]] == [a]


# Text for the differential property: token texts, printable ASCII, a
# few non-ASCII letters and decimal digits, the non-decimal digit '²',
# string literals (valid and bad escapes, raw newlines, with and
# without the closing quote) and terminated and unterminated comments.
ALPHABET = string.printable + "éßЖπ名" + "١٢०" + "²"
string_literals = st.builds(
    lambda parts, closed: '"' + "".join(parts) + ('"' if closed else ""),
    st.lists(st.sampled_from(["a", " ", "é", "\\n", "\\t", '\\"',
                              "\\\\", "\\q", "\\", "\n", "\r"]),
             max_size=6),
    st.booleans())
comments = st.builds(
    lambda opener, body, closer: opener + body + closer,
    st.sampled_from(["//", "/*"]),
    st.text(alphabet=" *x/\n\r", max_size=6),
    st.sampled_from(["", "\n", "*/", "**/"]))
token_texts = st.sampled_from(SYMBOLS + sorted(KEYWORDS) + [
    "x", "$a_1", "é2", "42", "١٢", " ", "\n"])
jlang_text = st.lists(
    st.one_of(token_texts, st.text(alphabet=ALPHABET, max_size=8),
              string_literals, comments),
    max_size=12).map("".join)


def reference_outcome(text):
    """The reference lexer's token fields and error message on ``text``.

    The reference lexes a non-decimal digit such as '²' into an ``int``
    token that ``int()`` then rejects; there the expected outcome is
    instead the unexpected-character error at that digit."""
    lexer = Lexer(text)
    tokens = []
    try:
        while True:
            tok = lexer._next_token()
            if tok.kind == "int" and not tok.text.isdecimal():
                k = next(i for i, ch in enumerate(tok.text)
                         if not ch.isdecimal())
                return None, (f"unexpected character {tok.text[k]!r} "
                              f"at {tok.line}:{tok.col + k}")
            tokens.append(tok)
            if tok.kind == "eof":
                return token_fields(tokens), None
    except LexError as exc:
        return None, str(exc)


@given(jlang_text)
@settings(max_examples=400)
def test_tokenize_matches_reference_lexer(text):
    want_tokens, want_error = reference_outcome(text)
    try:
        got = token_fields(tokenize(text))
    except LexError as exc:
        assert str(exc) == want_error
    else:
        assert want_error is None
        assert got == want_tokens
