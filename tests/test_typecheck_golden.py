"""The T typechecker's verdicts and error messages, pinned.

``data/typecheck_golden.json`` records ``(ok, str(err))`` for every
:mod:`repro.adversarial` source and for ~200 seeded single-instruction
mutations of compiled programs (an instruction dropped, two swapped, a
register retargeted, a stack-slot index shifted), as the checker gave
them before its allocation-light rewrite.  The checker must reproduce
each entry exactly.  The file's ``"f"`` entries record pure F's verdict
and type (:func:`repro.f.typecheck.typecheck`) on seeded whole-F
programs and single-node mutations of them, as the standalone F checker
gave them before F was typed by the FT judgment.
``data/make_typecheck_golden.py`` documents how both corpora were
drawn.
"""

import json
from pathlib import Path

import pytest

from tests.data.make_typecheck_golden import (
    verdict_component, verdict_expr, verdict_f,
)

ENTRIES = json.loads(
    (Path(__file__).parent / "data" / "typecheck_golden.json").read_text())
GOLDEN = [e for e in ENTRIES if e["form"] != "f"]
F_GOLDEN = [e for e in ENTRIES if e["form"] == "f"]


def test_corpus_covers_adversaries_and_mutants():
    names = [e["name"] for e in GOLDEN]
    assert sum(n.startswith("adversarial/") for n in names) >= 3
    assert sum(n.startswith("mutant/") for n in names) >= 200
    assert any(e["ok"] for e in GOLDEN)
    assert sum(not e["ok"] for e in GOLDEN) > len(GOLDEN) // 2


@pytest.mark.parametrize("entry", GOLDEN, ids=[e["name"] for e in GOLDEN])
def test_verdict_and_message_unchanged(entry):
    verdict = (verdict_component if entry["form"] == "component"
               else verdict_expr)
    assert verdict(entry["text"]) == (entry["ok"], entry["error"])


def test_f_corpus_covers_programs_and_every_mutation():
    names = [e["name"] for e in F_GOLDEN]
    assert sum(n.startswith("f/program/") for n in names) >= 30
    kinds = {n.split("/")[3] for n in names if n.startswith("f/mutant/")}
    assert kinds == {"unit", "drop-arg", "proj", "fold", "stacklam",
                     "boundary"}
    assert any(e["ok"] for e in F_GOLDEN if "/mutant/" in e["name"])
    assert all(e["ok"] for e in F_GOLDEN if "/program/" in e["name"])


@pytest.mark.parametrize("entry", F_GOLDEN, ids=[e["name"] for e in F_GOLDEN])
def test_f_verdict_and_type_unchanged(entry):
    assert verdict_f(entry["text"]) == (entry["ok"], entry["type"])


#: ``typecheck.t.instr.*`` and ``typecheck.t.term.*`` counts of one check
#: of each program, as recorded before the allocation-light rewrite: the
#: checker still steps every instruction and judges every terminator.
COUNTS_FACT_F = {
    "typecheck.t.instr.aop": 4, "typecheck.t.instr.balloc": 4,
    "typecheck.t.instr.bnz": 2, "typecheck.t.instr.ld": 14,
    "typecheck.t.instr.mv": 21, "typecheck.t.instr.protect": 1,
    "typecheck.t.instr.salloc": 39, "typecheck.t.instr.sfree": 15,
    "typecheck.t.instr.sld": 36, "typecheck.t.instr.sst": 42,
    "typecheck.t.instr.unfoldi": 2, "typecheck.t.instr.unpack": 5,
    "typecheck.t.term.call": 6, "typecheck.t.term.halt": 1,
    "typecheck.t.term.jmp": 4, "typecheck.t.term.ret": 5,
}
COUNTS_FIG17_FACT_T = {
    "typecheck.t.instr.aop": 2, "typecheck.t.instr.bnz": 2,
    "typecheck.t.instr.mv": 4, "typecheck.t.instr.protect": 1,
    "typecheck.t.instr.sfree": 2, "typecheck.t.instr.sld": 1,
    "typecheck.t.term.halt": 1, "typecheck.t.term.ret": 2,
}


def _t_counts(term):
    from repro import obs
    from repro.ft.typecheck import check_ft_expr

    obs.enable(record=False)
    obs.reset()
    try:
        check_ft_expr(term)
        counters = obs.OBS.metrics.snapshot()["counters"]
    finally:
        obs.disable()
    return {k: v for k, v in counters.items()
            if k.startswith(("typecheck.t.instr.", "typecheck.t.term."))}


class TestStepCounts:
    def test_compiled_fact_f(self):
        from repro.compile.pipeline import compile_term
        from repro.papers_examples.fig17_factorial import build_fact_f

        term = compile_term(build_fact_f()).wrapped
        assert _t_counts(term) == COUNTS_FACT_F
        assert _t_counts(term) == COUNTS_FACT_F   # a repeat skips nothing

    def test_fig17_fact_t(self):
        from repro.papers_examples.fig17_factorial import build_fact_t

        assert _t_counts(build_fact_t()) == COUNTS_FIG17_FACT_T
        assert _t_counts(build_fact_t()) == COUNTS_FIG17_FACT_T
