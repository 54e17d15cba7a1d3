"""The character-at-a-time jlang lexer, kept as a differential oracle.

This is the lexer ``repro.lang.lexer`` used before the single-pattern
scanner replaced it.  Tests compare the two token for token and error
for error (``tests/property/test_lexer_props.py``,
``tests/lang/test_lexer_differential.py``); nothing under ``src/``
imports it.
"""

from __future__ import annotations

from typing import List

from repro.lang.errors import LexError
from repro.lang.lexer import Token

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


class Lexer:
    """Converts jlang source text into a token list."""

    def __init__(self, source: str, filename: str = "<string>") -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1

    def _error(self, message: str) -> LexError:
        return LexError(message, self.line, self.col)

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source) and not (
                        self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                if self.pos >= len(self.source):
                    raise self._error("unterminated block comment")
                self._advance(2)
            else:
                return

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            tok = self._next_token()
            out.append(tok)
            if tok.kind == "eof":
                return out

    def _next_token(self) -> Token:
        self._skip_trivia()
        line, col = self.line, self.col
        if self.pos >= len(self.source):
            return Token("eof", "", line, col)
        ch = self._peek()
        if ch.isalpha() or ch == "_" or ch == "$":
            start = self.pos
            while self._peek() and (self._peek().isalnum() or
                                    self._peek() in "_$"):
                self._advance()
            text = self.source[start:self.pos]
            kind = "kw" if text in KEYWORDS else "id"
            return Token(kind, text, line, col)
        if ch.isdigit():
            start = self.pos
            while self._peek().isdigit():
                self._advance()
            return Token("int", self.source[start:self.pos], line, col)
        if ch == '"':
            return self._string(line, col)
        for sym in SYMBOLS:
            if self.source.startswith(sym, self.pos):
                self._advance(len(sym))
                return Token("sym", sym, line, col)
        raise self._error(f"unexpected character {ch!r}")

    def _string(self, line: int, col: int) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            ch = self._peek()
            if ch == "":
                raise self._error("unterminated string literal")
            if ch == '"':
                self._advance()
                return Token("string", "".join(chars), line, col)
            if ch == "\\":
                self._advance()
                esc = self._peek()
                mapping = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
                if esc not in mapping:
                    raise self._error(f"bad escape \\{esc}")
                chars.append(mapping[esc])
                self._advance()
            else:
                chars.append(ch)
                self._advance()


def reference_tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` with the reference lexer."""
    return Lexer(source).tokens()


def token_fields(tokens: List[Token]) -> List[tuple]:
    """Each token as its (kind, text, line, col) tuple."""
    return [(tok.kind, tok.text, tok.line, tok.col) for tok in tokens]
