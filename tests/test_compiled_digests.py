"""The compiler's output, pinned.

``data/compiled_digests.json`` holds the SHA-256 of the pretty-printed
component compiled from every pure-F paper example and from 40 seeded
whole-F programs, as the compiler emitted them before F was typed by the
FT judgment.  ``data/make_compiled_digests.py`` documents the corpus.
"""

import json
from pathlib import Path

import pytest

from tests.data.make_compiled_digests import digest, programs

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "compiled_digests.json").read_text())
PROGRAMS = dict(programs())


def test_corpus_covers_examples_and_programs():
    assert set(DIGESTS) == set(PROGRAMS)
    assert sum(n.startswith("example/") for n in DIGESTS) == 4
    assert sum(n.startswith("random/") for n in DIGESTS) == 40


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_compiled_component_unchanged(name):
    assert digest(PROGRAMS[name]) == DIGESTS[name]
