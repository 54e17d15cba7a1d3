"""Lexer unit tests."""

import pytest

from repro.lang import LexError, tokenize


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


def test_empty_source_yields_only_eof():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind == "eof"


def test_identifiers_and_keywords():
    assert kinds("class Foo extends Bar") == [
        ("kw", "class"), ("id", "Foo"), ("kw", "extends"), ("id", "Bar")]


def test_identifier_with_dollar_and_underscore():
    assert kinds("$Root$X _a b$2") == [
        ("id", "$Root$X"), ("id", "_a"), ("id", "b$2")]


def test_integer_literal():
    assert kinds("42 0 123") == [("int", "42"), ("int", "0"),
                                 ("int", "123")]


def test_string_literal():
    assert kinds('"hello"') == [("string", "hello")]


def test_string_escapes():
    assert kinds(r'"a\nb\t\"c\\"') == [("string", 'a\nb\t"c\\')]


def test_bad_escape_rejected():
    with pytest.raises(LexError):
        tokenize(r'"\q"')


def test_unterminated_string_rejected():
    with pytest.raises(LexError):
        tokenize('"abc')


def test_symbols_longest_match():
    assert kinds("== = <= < ++ + &&") == [
        ("sym", "=="), ("sym", "="), ("sym", "<="), ("sym", "<"),
        ("sym", "++"), ("sym", "+"), ("sym", "&&")]


def test_line_comment_skipped():
    assert kinds("a // comment\nb") == [("id", "a"), ("id", "b")]


def test_block_comment_skipped():
    assert kinds("a /* x\ny */ b") == [("id", "a"), ("id", "b")]


def test_unterminated_block_comment_rejected():
    with pytest.raises(LexError):
        tokenize("/* never ends")


def test_line_and_column_tracking():
    toks = tokenize("a\n  b")
    assert toks[0].line == 1 and toks[0].col == 1
    assert toks[1].line == 2 and toks[1].col == 3


def test_unexpected_character_rejected():
    with pytest.raises(LexError):
        tokenize("a # b")


def test_integer_literals_are_decimal_digits_only():
    # str.isdigit() accepts '²', which int() rejects: it is an
    # unexpected character, reported at its own position.
    with pytest.raises(LexError) as info:
        tokenize("class D { void m() { int x = ²; } }")
    assert str(info.value) == "unexpected character '²' at 1:30"
    assert kinds("١٢") == [("int", "١٢")]


def test_keywords_are_not_identifiers():
    toks = tokenize("returnx return")
    assert toks[0].kind == "id"
    assert toks[1].kind == "kw"


def test_string_position_reported_at_opening_quote():
    toks = tokenize('  "x"')
    assert toks[0].col == 3


def test_mixed_program_token_stream():
    source = 'class C { void m() { int x = 1 + 2; } }'
    texts = [t.text for t in tokenize(source)[:-1]]
    assert texts == ["class", "C", "{", "void", "m", "(", ")", "{", "int",
                     "x", "=", "1", "+", "2", ";", "}", "}"]
