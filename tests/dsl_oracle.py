"""The character-loop tokenizer, kept as the reference for the regex scan.

`ppcat.dsl.tokenize` reads the token texts of a `.ppc` text off one regex
scan and works out a token's line and column (`dsl.position`) only when a
ParseError needs them.  This module holds the scanner it replaced, step for
step: one Python loop over the characters, building a Token with its line and
column for every token, the end of input included.

It also holds `print_workspace`, the printer of a whole workspace that the
parse-print round-trip tests use.
"""

from __future__ import annotations

from dataclasses import dataclass

from ppcat.dsl import Workspace, print_item
from ppcat.errors import ParseError
from ppcat.scalars import QQ

DIGITS = frozenset("0123456789")


@dataclass
class Token:
    kind: str   # name, int, punct, eof
    text: str
    line: int
    col: int


def tokenize(text):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in DIGITS:
            j = i
            while j < n and text[j] in DIGITS:
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if text.startswith("->", i):
            toks.append(Token("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if c in "{}()[];:,*+-/.=":
            toks.append(Token("punct", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(line, col, "a token", c)
    toks.append(Token("eof", "", line, col))
    return toks


def print_workspace(ws: Workspace) -> str:
    head = ""
    if ws.field_declared or ws.field != QQ:
        head = "field Q;\n\n" if ws.field.kind == "Q" else "field F %d;\n\n" % ws.field.p
    return head + "\n\n".join(print_item(d, ws.field) for d in ws.decls) + "\n"
