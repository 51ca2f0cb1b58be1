"""Regenerate ``compiled_digests.json``: the SHA-256 of the pretty-printed
component the compiler emits for each pure-F paper example and for
seeded :func:`tests.strategies.random_full_f_expr` programs.

A verdict digest (``ValidationReport.to_json()``) cannot tell two builds'
programs apart; these digests pin the compiled code itself, so a change
to the compiler's front end (typing, eligibility, closure conversion)
that should not change its output is checked against them.

Run from the repository root::

    PYTHONPATH=src:. python tests/data/make_compiled_digests.py

Only regenerate on purpose: a change to the emitted code changes these
digests.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.compile.pipeline import compile_term
from repro.surface.pretty import pretty_component

OUT = Path(__file__).with_name("compiled_digests.json")
PROGRAMS = 40


def programs():
    """``(name, F term)`` of every program the file pins."""
    from tests.strategies import random_full_f_expr

    from repro.papers_examples import example_entries
    from repro.papers_examples.fig11_jit import build_g
    from repro.papers_examples.fig17_factorial import build_fact_f

    found = [(f"example/{name}", build())
             for name, (_, build) in example_entries().items()
             if name in ("jit-source", "fact-f")]
    found += [("example/fig11-g", build_g()),
              ("example/fig17-fact-f", build_fact_f())]
    found += [(f"random/{seed:02d}", random_full_f_expr(seed))
              for seed in range(PROGRAMS)]
    return found


def digest(term) -> str:
    """SHA-256 of the pretty-printed compiled component of ``term``."""
    text = pretty_component(compile_term(term).component)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    digests = {name: digest(term) for name, term in programs()}
    OUT.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
