"""Tokenizer for the FunTAL surface syntax.

Line comments start with ``--`` (Haskell-style) or ``//`` and run to end of
line.  Tokens carry line/column for error reporting.

The source is scanned in one ``findall`` pass over a single pattern: each
match is a run of whitespace followed by one token (or by one character
that starts no token, which is an error).  A token's kind comes from a
dict lookup on its text, or on its first character for integers,
identifiers and comments.  Positions are kept as a character offset, and
the line and the offset of its start change only where whitespace holds a
newline.  Integer literals are ASCII digits only.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import List, NamedTuple

from repro.errors import ParseError

__all__ = ["Token", "tokenize", "KEYWORDS", "REGISTERS"]

#: Reserved words of the surface language.
KEYWORDS = frozenset({
    "unit", "int", "exists", "mu", "ref", "box", "forall", "code", "nil",
    "end", "out", "zeta", "eps", "F", "lam", "if0", "fold", "unfold",
    "pack", "as", "jmp", "call", "ret", "halt", "add", "sub", "mul", "bnz",
    "ld", "st", "ralloc", "balloc", "mv", "salloc", "sfree", "sld", "sst",
    "unpack", "protect", "import", "FT", "TF",
})

REGISTERS = frozenset({"r1", "r2", "r3", "r4", "r5", "r6", "r7", "ra"})

_PUNCT = ("::", "->", "(", ")", "[", "]", "{", "}", "<", ">", ",", ";",
          ":", ".", "*", "+", "-", "=")

# Leading whitespace, then an identifier, a one-character punctuation
# mark, a two-character one or a comment, an integer, or any other
# visible character (reported as an error); the commonest come first.
# No alternative of the token starts with whitespace, so whitespace
# after the last token is matched by nothing: the scan stops before it,
# since each failed attempt to match it backtracks over all of it.
_TOKEN_RE = re.compile(r"""
    (\s*)
    ( [A-Za-z_][A-Za-z0-9_']*
    | [()\[\]{}<>,;.*+=]
    | ::|:|->|(?:--|//)[^\n]*|-
    | [0-9]+
    | \S )
""", re.VERBOSE)

#: The kind of a token whose text alone decides it.
_KIND_OF_TEXT = {
    **dict.fromkeys(KEYWORDS, "keyword"),
    **dict.fromkeys(REGISTERS, "register"),
    **dict.fromkeys(_PUNCT, "punct"),
}

_COMMENT = "comment"

#: The kind of any other token, by its first character.  A token starting
#: with ``-`` or ``/`` that is longer than one character is a comment
#: (``-`` alone is punctuation, ``/`` alone is an error).
_KIND_OF_FIRST = {
    **dict.fromkeys("0123456789", "int"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ_"
                    "abcdefghijklmnopqrstuvwxyz", "ident"),
    "-": _COMMENT, "/": _COMMENT,
}


class Token(NamedTuple):
    """One token: ``kind`` is ``'int'``, ``'ident'``, ``'keyword'``,
    ``'register'``, ``'punct'`` or ``'eof'``; ``line`` and ``column``
    count from 1."""

    kind: str
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.text!r}@{self.line}:{self.column}"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; raises :class:`ParseError` on bad characters."""
    rows: List[tuple] = []
    append = rows.append
    kind_of_text = _KIND_OF_TEXT.get
    kind_of_first = _KIND_OF_FIRST.get
    line = 1
    line_start = 0      # offset of the current line's first character
    pos = 0             # offset of the next unscanned character
    for space, text in _TOKEN_RE.findall(source, 0, len(source.rstrip())):
        if space:
            if "\n" in space:
                line += space.count("\n")
                line_start = pos + space.rfind("\n") + 1
            pos += len(space)
        kind = kind_of_text(text)
        if kind is None:
            kind = kind_of_first(text[0])
            if kind is _COMMENT:
                if len(text) > 1:
                    pos += len(text)
                    continue
                kind = None
            if kind is None:
                raise ParseError(f"unexpected character {text!r}",
                                 line, pos - line_start + 1)
        append((kind, text, line, pos - line_start + 1))
        pos += len(text)
    if pos < len(source):
        tail = source[pos:]
        if "\n" in tail:
            line += tail.count("\n")
            line_start = pos + tail.rfind("\n") + 1
        pos = len(source)
    append(("eof", "", line, pos - line_start + 1))
    # Each row becomes a Token in C: no Python call per token.
    return list(map(tuple.__new__, repeat(Token), rows))
