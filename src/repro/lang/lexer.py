"""Lexer for jlang, the Java-like surface language.

jlang covers the subset of Java that TAJ's motivating examples and the
synthetic benchmark suite need: classes, interfaces, fields, methods,
arrays, strings, control flow, try/catch, casts, and `new`.

One compiled pattern scans the source once.  Each match is a run of
trivia (whitespace and comments) followed by exactly one token, the
end of input, or the offending text of a lexical error; line and
column come from counting newlines between consecutive token starts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from .errors import LexError

KEYWORDS = frozenset({
    "class", "interface", "extends", "implements", "library",
    "static", "native", "new", "return", "if", "else", "while", "for",
    "break", "continue", "try", "catch", "finally", "throw", "throws",
    "this", "null", "true", "false", "void", "int", "boolean",
    "public", "private", "protected", "final",
})

# Longest-match first.
SYMBOLS = [
    "==", "!=", "<=", ">=", "&&", "||", "+=", "++", "--", "-=",
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "=", "+", "-", "*",
    "/", "%", "<", ">", "!", "&", "|",
]

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# A string body up to its closing quote, first invalid escape, or the
# end of input.
_BODY = r'[^"\\]*(?:\\[nt"\\][^"\\]*)*'

# After the trivia prefix some alternative matches at every position
# (``bad`` takes any one character, ``eof`` the end), so consecutive
# matches tile the source.  ``id`` takes ASCII-initial identifiers and
# ``uid`` the rest; the scanner rejects a ``uid`` whose first character
# is not a letter (``\w`` also admits non-decimal digits such as ``²``).
# ``comment`` is a ``/*`` the prefix could not close.  ``bad`` is the
# opening quote of a string with an invalid escape or no closing quote,
# or any other character.
_TOKEN = re.compile(r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*[^*]*\*+(?:[^/*][^*]*\*+)*/ )*
    (?: (?P<id>[A-Za-z_$][\w$]*)
      | (?P<comment>/\*)
      | (?P<sym>%s)
      | (?P<int>\d+)
      | (?P<string>"%s")
      | (?P<uid>[^\W\d][\w$]*)
      | (?P<eof>\Z)
      | (?P<bad>[\s\S]) )
    """ % ("|".join(map(re.escape, SYMBOLS)), _BODY), re.VERBOSE)
_VALID_BODY = re.compile(_BODY)
_ESCAPE = re.compile(r"\\(.)")


@dataclass(slots=True)
class Token:
    kind: str          # "id", "kw", "int", "string", "sym", "eof"
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind},{self.text!r}@{self.line}:{self.col})"


def tokenize(source: str, filename: str = "<string>") -> List[Token]:
    """Tokenize jlang source into a token list ending in one ``eof``."""
    tokens: List[Token] = []
    append = tokens.append
    count = source.count
    line, line_start, last = 1, 0, 0

    def error(message: str, offset: int) -> LexError:
        nl = source.rfind("\n", 0, offset)
        return LexError(message, line + count("\n", last, offset),
                        offset - nl)

    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        start = m.start(kind)
        newlines = count("\n", last, start)
        if newlines:
            line += newlines
            line_start = source.rindex("\n", last, start) + 1
        last = start
        text = m[kind]
        if kind == "id":
            if text in KEYWORDS:
                kind = "kw"
        elif kind == "string":
            text = text[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], text)
        elif kind == "uid":
            if not text[0].isalpha():
                raise error(f"unexpected character {text[0]!r}", start)
            kind = "id"
        elif kind == "eof":
            append(Token(kind, text, line, start - line_start + 1))
            return tokens
        elif kind == "comment":
            raise error("unterminated block comment", len(source))
        elif kind == "bad":
            if text != '"':
                raise error(f"unexpected character {text!r}", start)
            stop = _VALID_BODY.match(source, start + 1).end()
            if stop == len(source):
                raise error("unterminated string literal", stop)
            raise error(f"bad escape \\{source[stop + 1:stop + 2]}",
                        stop + 1)
        append(Token(kind, text, line, start - line_start + 1))
    raise AssertionError("unreachable: the pattern always matches eof")
