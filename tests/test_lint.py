"""Tests for the static component lints and their CLI surface."""

import pytest

from repro.analysis.lint import lint_component, LintWarning
from repro.papers_examples.fig3_call_to_call import build as build_fig3
from repro.papers_examples.fig16_two_blocks import build_f1
from repro.tal.syntax import (
    Component, Halt, HCode, Jmp, Loc, Mv, NIL_STACK, QEnd, RegFileTy, seq,
    TInt, WInt, WLoc,
)

END_INT = QEnd(TInt(), NIL_STACK)


def _halting_block(n=1):
    return HCode((), RegFileTy.of(r1=TInt()), NIL_STACK, END_INT,
                 seq(Mv("r1", WInt(n)), Halt(TInt(), NIL_STACK, "r1")))


class TestUnreachableBlocks:
    def test_clean_program(self):
        assert lint_component(build_fig3()) == []

    def test_orphan_block_flagged(self):
        orphan = Loc("orphan")
        comp = Component(
            seq(Mv("r1", WInt(1)), Halt(TInt(), NIL_STACK, "r1")),
            ((orphan, _halting_block()),))
        warnings = lint_component(comp)
        assert any(w.kind == "unreachable-block" and w.subject == "orphan"
                   for w in warnings)

    def test_dynamic_jumps_suppress_flag(self):
        # a component calling through a register may reach any block
        from repro.papers_examples.fig11_jit import build_jit

        comp = build_jit().fn.comp
        assert not any(w.kind == "unreachable-block"
                       for w in lint_component(comp))


class TestNoExit:
    def test_spinner_flagged(self):
        spin = Loc("spin")
        block = HCode((), RegFileTy(), NIL_STACK, END_INT,
                      seq(Jmp(WLoc(spin))))
        comp = Component(seq(Jmp(WLoc(spin))), ((spin, block),))
        warnings = lint_component(comp)
        assert any(w.kind == "no-exit" for w in warnings)

    def test_terminating_program_clean(self):
        comp = Component(seq(Mv("r1", WInt(1)),
                             Halt(TInt(), NIL_STACK, "r1")))
        assert not any(w.kind == "no-exit" for w in lint_component(comp))


class TestDuplicateBlocks:
    def test_identical_blocks_flagged(self):
        a, b = Loc("a"), Loc("b")
        comp = Component(
            seq(Jmp(WLoc(a))),
            ((a, _halting_block()), (b, _halting_block())))
        warnings = lint_component(comp)
        assert any(w.kind == "duplicate-blocks" for w in warnings)

    def test_different_bodies_not_flagged(self):
        a, b = Loc("a"), Loc("b")
        comp = Component(
            seq(Jmp(WLoc(a))),
            ((a, _halting_block(1)), (b, _halting_block(2))))
        assert not any(w.kind == "duplicate-blocks"
                       for w in lint_component(comp))

    def test_fig16_variants_are_not_duplicates(self):
        comp = build_f1().body.fn.comp
        assert not any(w.kind == "duplicate-blocks"
                       for w in lint_component(comp))

    def test_warning_prints(self):
        w = LintWarning("no-exit", "x", "msg")
        assert "[no-exit] x: msg" == str(w)


class TestCliSurface:
    def test_lint_clean(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.ft"
        path.write_text(str(build_fig3()))
        assert main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_dirty(self, tmp_path, capsys):
        from repro.cli import main

        spin = ("(jmp spin, {spin -> code[]{.; nil} end{int; nil}. "
                "jmp spin})")
        path = tmp_path / "p.ft"
        path.write_text(spin)
        assert main(["lint", str(path)]) == 4
        assert "no-exit" in capsys.readouterr().out

    def test_lint_descends_into_boundaries(self, tmp_path, capsys):
        from repro.cli import main
        from repro.papers_examples.fig16_two_blocks import build_f1

        path = tmp_path / "p.ft"
        path.write_text(str(build_f1()))
        assert main(["lint", str(path)]) == 0

    def test_equiv_command_confirms(self, tmp_path, capsys):
        from repro.cli import main

        left = tmp_path / "l.ft"
        right = tmp_path / "r.ft"
        left.write_text("lam (x: int). (x + 2)")
        right.write_text("lam (x: int). ((x + 1) + 1)")
        code = main(["equiv", str(left), str(right),
                     "--type", "(int) -> int", "--fuel", "10000"])
        assert code == 0
        assert "indistinguishable" in capsys.readouterr().out

    def test_equiv_command_refutes(self, tmp_path, capsys):
        from repro.cli import main

        left = tmp_path / "l.ft"
        right = tmp_path / "r.ft"
        left.write_text("lam (x: int). x")
        right.write_text("lam (x: int). (x + 1)")
        code = main(["equiv", str(left), str(right),
                     "--type", "(int) -> int", "--fuel", "10000"])
        assert code == 3
        assert "INEQUIVALENT" in capsys.readouterr().out


class TestPaperExamples:
    """The warnings of every component in the paper's examples and in
    the compiled F ones, nested components included."""

    WARNINGS = {
        "fig3": [[]], "sec3-seq": [[]], "sec3-jmp": [[]], "sec3-call": [[]],
        "import": [[]], "push7": [[]], "fig11-g": [], "fig11-source": [],
        "fig11-jit": [[]], "fig16-f1": [[]], "fig16-f2": [[]],
        "fig17-f": [], "fig17-t": [[]], "fig17-count": [[]],
        "compiled fig11-g": [[]], "compiled fig11-source": [[]],
        "compiled fig17-f": [[
            "[duplicate-blocks] f2_join0/f4_join0: blocks have equal "
            "signatures and identical bodies; they could be merged"]],
    }

    @staticmethod
    def builders():
        from repro.compile import compile_term
        from repro.papers_examples import (
            fig11_jit, fig16_two_blocks, fig17_factorial, fig3_call_to_call,
            import_example, push7, sec3_sequences,
        )

        found = {
            "fig3": fig3_call_to_call.build,
            "sec3-seq": sec3_sequences.build_sequence_program,
            "sec3-jmp": sec3_sequences.build_jmp_program,
            "sec3-call": sec3_sequences.build_call_program,
            "import": import_example.build, "push7": push7.build,
            "fig11-g": fig11_jit.build_g,
            "fig11-source": fig11_jit.build_source,
            "fig11-jit": fig11_jit.build_jit,
            "fig16-f1": fig16_two_blocks.build_f1,
            "fig16-f2": fig16_two_blocks.build_f2,
            "fig17-f": fig17_factorial.build_fact_f,
            "fig17-t": fig17_factorial.build_fact_t,
            "fig17-count": fig17_factorial.build_count_t,
        }
        for name in ("fig11-g", "fig11-source", "fig17-f"):
            found["compiled " + name] = (
                lambda build: lambda: compile_term(build()).wrapped)(
                    found[name])
        return found

    def test_warnings_are_pinned(self):
        from repro import walk

        got = {name: [[str(w) for w in lint_component(x)]
                      for x in walk.preorder(build(), cross=walk.ALL)
                      if isinstance(x, Component)]
               for name, build in self.builders().items()}
        assert got == self.WARNINGS
