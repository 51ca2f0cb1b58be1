"""Regenerate ``parse_golden.json``: what ``parse_program`` makes of a
fixed corpus of surface sources, accepted or rejected.

The corpus is every paper example printed, seeded
:func:`tests.strategies.random_full_f_expr` and
:func:`tests.strategies.random_t_program` programs (seeds 0-199),
hand-written sources that printed terms never contain (precedence
without parentheses, negative literals, comments, odd spacing), the
``(unfold (fold[mu a. int] (1)))`` program that opens like a T
component, and a few sources with oversized or non-ASCII integer
literals.  For 40 of these sources it also records every proper prefix
(the source cut before each token) and every single-token deletion.

Each outcome is ``tree <digest>`` (the first 16 hex digits of the
SHA-256 of the tree's ``repr``), ``error <line>:<column> <message>`` for
a :class:`~repro.errors.ParseError`, or ``crash <exception type>`` for
anything else.  ``tests/test_parse_golden.py`` replays the file.

Run from the repository root::

    PYTHONPATH=src:. python tests/data/make_parse_golden.py

Only regenerate on purpose: the file pins the parser's accepted
language, its trees and its error positions.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro.errors import ParseError
from repro.surface import parse_program
from repro.surface.lexer import tokenize

OUT = Path(__file__).with_name("parse_golden.json")
SEEDS = 200
ERROR_SOURCES = 40

#: Hand-written sources: what a person types rather than what the
#: printer emits.
HAND = [
    "1 + 2 * 3 - 4",
    "a * b * c - d - e + f",
    "f x y * 2 + g (1)",
    "-3 + -4 * -5",
    "1 - -2",
    "f -1",
    "(-5)",
    "lam (x: int, y: int). x * y + 1",
    "lam (x: int). lam (y: int). x y",
    "if0 1 + 2 {3} {4} 5",
    "f lam (x: int). x 3",
    "pi0(<1, 2>) pi1 (x) pi2",
    "<> <1> <1, <2, 3>> <1 + 2, f x>",
    "fold[mu a. (a) -> int] (1) unfold (x)",
    "unfold (fold[mu a. int] (1))",
    "-- leading comment\n1 + // trailing\n  2\n-- last line",
    "() (()) ((1)) () ()",
    "x' f' x'' _y",
    "lam (f: (int, unit) -> <int, unit>). f 1 ()",
    "lam (x: L<int>, y: L). x",
    "lam[int, unit; int] (x: int). x",
    "FT[int](mv r1, 1;\n  halt int, nil {r1}, .) + 1",
    "FT[int; 0; <>](halt int, nil {r1}, .)",
    "FT[int; 1; <>](halt int, nil {r1}, .)",
    "FT[int; -1; <int, unit>](sfree 1; halt int, nil {r1}, .)",
    "(mv r1, -3; mv r2, l[int, z, e]; mv r3, l[nil, int :: z, end{int; nil}, "
    "r1, 2, out]; halt int, nil {r1}, .)",
    "(jmp l,\n {l -> code[a, zeta z, eps e, F b]{r1: int, ra: a; z} e.\n"
    "   halt int, z {r1};\n  d -> <1, (), l>})",
    "(salloc 2; sst 0, r1; sld r2, 1; ld r3, r2[0]; st r2[1], r3; "
    "ralloc r4, 2; balloc r5, 0; bnz r1, l; unpack <a, r6> r6; "
    "unfold r7, r7; sfree 2; halt int, nil {r1}, .)",
    "(mv r1, pack <int, 1> as exists a. a; mv r2, fold[mu a. int] 1; "
    "import r3, z TF[int] (1 + 2); protect <int, unit>, z; "
    "ret ra {r1}, .)",
    "(call l {int :: nil, ra}, .)",
    "\t1\r\n+\t2 ",
    "1 + (2",
]

#: Sources whose outcome a deliberate change moved; see CHANGES.md.
LITERALS = {
    "literal/f-huge": "1" * 5000,
    "literal/proj-huge": "pi" + "1" * 5000 + "(<1>)",
    "literal/t-huge": "(mv r1, " + "1" * 5000 + "; halt int, nil {r1}, .)",
    "literal/t-neg-huge": "(mv r1, -" + "1" * 5000
                          + "; halt int, nil {r1}, .)",
    "literal/marker-huge": "(call l {nil, " + "1" * 5000 + "}, .)",
    "literal/salloc-huge": "(salloc " + "1" * 5000
                           + "; halt int, nil {r1}, .)",
    "literal/arabic-indic": "٣ + 1",
    "literal/t-arabic-indic": "(mv r1, ٣; halt int, nil {r1}, .)",
}


def corpus() -> List[Tuple[str, str]]:
    """``(id, source)`` for every whole source, in a fixed order."""
    from repro.papers_examples import (
        example_entries, fig3_call_to_call, import_example, push7,
        sec3_sequences,
    )
    from tests.strategies import random_full_f_expr, random_t_program

    out = [(f"paper/{name}", str(build()))
           for name, (_, build) in example_entries().items()]
    out += [("paper/push7", str(push7.build())),
            ("paper/fig3", str(fig3_call_to_call.build())),
            ("paper/import", str(import_example.build())),
            ("paper/sec3-sequence",
             str(sec3_sequences.build_sequence_program())),
            ("paper/sec3-jmp", str(sec3_sequences.build_jmp_program())),
            ("paper/sec3-call", str(sec3_sequences.build_call_program()))]
    out += [(f"hand/{i:02d}", text) for i, text in enumerate(HAND)]
    out.append(("unfold-opens-like-a-component",
                "(unfold (fold[mu a. int] (1)))"))
    out += sorted(LITERALS.items())
    out += [(f"f/{seed:03d}", str(random_full_f_expr(seed)))
            for seed in range(SEEDS)]
    out += [(f"t/{seed:03d}", str(random_t_program(seed)))
            for seed in range(SEEDS)]
    return out


def error_sources(entries: List[Tuple[str, str]]) -> List[str]:
    """The ids whose prefixes and deletions are recorded: every
    hand-written source, the paper examples shorter than 300 characters,
    then generated F and T programs, 40 in all."""
    hand = [i for i, _ in entries if i.startswith("hand/")]
    short_paper = [i for i, text in entries
                   if i.startswith("paper/") and len(text) < 300]
    generated = [f"{form}/{seed:03d}" for seed in range(SEEDS)
                 for form in ("f", "t")]
    return (hand + short_paper + generated)[:ERROR_SOURCES]


def outcome(source: str) -> str:
    try:
        tree = parse_program(source)
    except ParseError as err:
        return f"error {err.line}:{err.column} {err}"
    except Exception as err:  # noqa: BLE001 -- a crash is an outcome
        return f"crash {type(err).__name__}"
    return "tree " + hashlib.sha256(repr(tree).encode()).hexdigest()[:16]


def token_spans(source: str) -> List[Tuple[int, int]]:
    """Start and end offset of every token but the end marker, from the
    lexer's line and column."""
    starts = [0]
    for i, ch in enumerate(source):
        if ch == "\n":
            starts.append(i + 1)
    spans = []
    for tok in tokenize(source)[:-1]:
        start = starts[tok.line - 1] + tok.column - 1
        spans.append((start, start + len(tok.text)))
    return spans


def variants(source: str) -> Dict[str, List[str]]:
    spans = token_spans(source)
    return {
        "prefix": [outcome(source[:start]) for start, _ in spans],
        "delete": [outcome(source[:start] + source[end:])
                   for start, end in spans],
    }


def build() -> Dict[str, Dict]:
    entries = corpus()
    chosen = set(error_sources(entries))
    golden: Dict[str, Dict] = {}
    for name, text in entries:
        record = {"whole": outcome(text)}
        if name in chosen:
            record.update(variants(text))
        golden[name] = record
    return golden


def main() -> int:
    golden = build()
    OUT.write_text(json.dumps(golden, indent=1) + "\n")
    cases = sum(1 + len(r.get("prefix", ())) + len(r.get("delete", ()))
                for r in golden.values())
    print(f"wrote {len(golden)} sources, {cases} outcomes, to {OUT}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
