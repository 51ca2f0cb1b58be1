"""The surface parser's trees and errors, pinned.

``data/parse_golden.json`` records what ``parse_program`` made of every
paper example, 400 generated F and T programs, hand-written sources and
a few oversized or non-ASCII literals, and of every proper prefix and
single-token deletion of 40 of them, as the recursive-descent parser
gave them before the one-pass lexer and the flat expression parser.
Only two kinds of entry were regenerated since, on purpose: integer
literals too long for ``int`` are now a located ``ParseError`` rather
than a crash, and non-ASCII digits are an unexpected character.
``data/make_parse_golden.py`` documents the corpus.
"""

import json
from pathlib import Path

import pytest

from tests.data.make_parse_golden import (
    corpus, error_sources, outcome, variants,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "parse_golden.json").read_text())
SOURCES = dict(corpus())


def test_corpus_matches_the_file():
    assert list(SOURCES) == list(GOLDEN)
    chosen = error_sources(list(SOURCES.items()))
    assert len(chosen) == 40
    assert {k for k, v in GOLDEN.items() if "prefix" in v} == set(chosen)


def test_corpus_covers_trees_errors_and_literals():
    wholes = [v["whole"] for v in GOLDEN.values()]
    assert sum(w.startswith("tree ") for w in wholes) >= 400
    derived = [o for v in GOLDEN.values()
               for o in v.get("prefix", []) + v.get("delete", [])]
    assert sum(o.startswith("error ") for o in derived) > 2000
    assert not any(o.startswith("crash ") for o in wholes + derived)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_outcome_unchanged(name):
    source = SOURCES[name]
    expected = GOLDEN[name]
    got = {"whole": outcome(source)}
    if "prefix" in expected:
        got.update(variants(source))
    assert got == expected
