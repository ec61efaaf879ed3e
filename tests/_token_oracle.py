"""The tokenizer as it was before `hql.dsl.tokenize` matched each token in
one pass: one regex match per whitespace run, comment or token, and line
and column kept by counting as it goes.  The differential reference for
`tokenize`; not used by the package."""

from __future__ import annotations

import re
from dataclasses import dataclass

from hql.dsl import ParseError


@dataclass(frozen=True)
class Token:
    kind: str  # ident | number | punct | arrow | implies | eof
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>\#[^\n]*)"
    r"|(?P<arrow>->)"
    r"|(?P<implies>=>)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<number>\d+)"
    r"|(?P<punct>[{}()\[\],;:/=])"
)


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col, filename)
        kind = m.lastgroup or ""
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens
