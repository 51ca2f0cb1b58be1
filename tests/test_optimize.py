"""Tests for the T peephole optimizer: every rewrite preserves typing and
bounded contextual equivalence (the constructive face of Fig 16)."""

import pytest

from repro.equiv.checker import check_equivalence
from repro.f.syntax import App, BinOp, FArrow, FInt, IntE, Lam, Var
from repro.ft.machine import evaluate_ft
from repro.ft.syntax import Boundary, Protect
from repro.ft.translate import continuation_type, type_translation
from repro.ft.typecheck import check_ft_expr
from repro.tal.machine import run_component
from repro.tal.optimize import (
    collapse_stack_traffic, optimize_component, thread_jumps,
)
from repro.tal.syntax import (
    Aop, Component, DeltaBind, Halt, HCode, InstrSeq, Jmp, KIND_EPS,
    KIND_ZETA, Loc, Mv, NIL_STACK, QEnd, QEps, QReg, RegFileTy, RegOp, Ret,
    Salloc, seq, Sfree, Sld, Sst, StackTy, TInt, TyApp, WInt, WLoc,
)
from repro.tal.typecheck import check_program

END_INT = QEnd(TInt(), NIL_STACK)
ARROW = FArrow((FInt(),), FInt())


class TestCollapseStackTraffic:
    def test_push_pop_becomes_move(self):
        iseq = seq(
            Mv("r1", WInt(5)),
            Salloc(1), Sst(0, "r1"), Sld("r2", 0), Sfree(1),
            Halt(TInt(), NIL_STACK, "r2"))
        out = collapse_stack_traffic(iseq)
        assert out.instrs == (Mv("r1", WInt(5)), Mv("r2", RegOp("r1")))

    def test_salloc_sfree_pair_removed(self):
        iseq = seq(Mv("r1", WInt(1)), Salloc(3), Sfree(3),
                   Halt(TInt(), NIL_STACK, "r1"))
        out = collapse_stack_traffic(iseq)
        assert out.instrs == (Mv("r1", WInt(1)),)

    def test_self_move_removed(self):
        iseq = seq(Mv("r1", WInt(1)), Mv("r1", RegOp("r1")),
                   Halt(TInt(), NIL_STACK, "r1"))
        out = collapse_stack_traffic(iseq)
        assert out.instrs == (Mv("r1", WInt(1)),)

    def test_unrelated_instructions_untouched(self):
        iseq = seq(Mv("r1", WInt(1)), Salloc(1), Sst(0, "r1"),
                   Halt(TInt(), StackTy((TInt(),), None), "r1"))
        assert collapse_stack_traffic(iseq) == iseq

    def test_mismatched_alloc_free_untouched(self):
        iseq = seq(Salloc(2), Sfree(1), Mv("r1", WInt(1)),
                   Halt(TInt(), StackTy((TInt(),), None), "r1"))
        out = collapse_stack_traffic(iseq)
        # wait: salloc 2 / sfree 1 leaves one unit slot; untouched
        assert out.instrs[0] == Salloc(2)

    def test_optimized_program_still_typechecks_and_runs(self):
        comp = Component(seq(
            Mv("r1", WInt(5)),
            Salloc(1), Sst(0, "r1"), Sld("r2", 0), Sfree(1),
            Aop("add", "r1", "r2", RegOp("r2")),
            Halt(TInt(), NIL_STACK, "r1")))
        optimized = optimize_component(comp)
        assert check_program(optimized, TInt())[0] == TInt()
        before, _ = run_component(comp)
        after, _ = run_component(optimized)
        assert before.word == after.word == WInt(10)

    def test_marker_move_window_collapses_correctly(self):
        """The push/pop window over the *marker register* becomes the
        marker-moving mv; the optimized block still typechecks."""
        zeps = (DeltaBind(KIND_ZETA, "z"), DeltaBind(KIND_EPS, "e"))
        cont = continuation_type(TInt(), StackTy((), "z"))
        block = HCode(
            zeps, RegFileTy.of(ra=cont, r1=TInt()), StackTy((), "z"),
            QReg("ra"),
            seq(Salloc(1), Sst(0, "ra"), Sld("r3", 0), Sfree(1),
                Ret("r3", "r1")))
        optimized_body = collapse_stack_traffic(block.instrs)
        assert optimized_body.instrs == (Mv("r3", RegOp("ra")),)
        from repro.ft.typecheck import FTTypechecker

        FTTypechecker().check_heap_value(
            HCode(block.delta, block.chi, block.sigma, block.q,
                  optimized_body))


class TestThreadJumps:
    def _trampoline_program(self):
        real = Loc("real")
        tramp = Loc("tramp")
        real_block = HCode((), RegFileTy.of(r1=TInt()), NIL_STACK, END_INT,
                           seq(Halt(TInt(), NIL_STACK, "r1")))
        tramp_block = HCode((), RegFileTy.of(r1=TInt()), NIL_STACK,
                            END_INT, seq(Jmp(WLoc(real))))
        return Component(
            seq(Mv("r1", WInt(3)), Jmp(WLoc(tramp))),
            ((real, real_block), (tramp, tramp_block)))

    def test_trampoline_removed(self):
        comp = self._trampoline_program()
        out = thread_jumps(comp)
        assert len(out.heap) == 1
        assert check_program(out, TInt())[0] == TInt()
        halted, _ = run_component(out)
        assert halted.word == WInt(3)

    def test_polymorphic_trampoline_removed(self):
        zeps = (DeltaBind(KIND_ZETA, "z"), DeltaBind(KIND_EPS, "e"))
        cont = continuation_type(TInt(), StackTy((), "z"))
        real, tramp = Loc("real"), Loc("tramp")
        real_block = HCode(
            zeps, RegFileTy.of(r1=TInt(), ra=cont), StackTy((), "z"),
            QReg("ra"), seq(Ret("ra", "r1")))
        tramp_block = HCode(
            zeps, RegFileTy.of(r1=TInt(), ra=cont), StackTy((), "z"),
            QReg("ra"),
            seq(Jmp(TyApp(WLoc(real), (StackTy((), "z"), QEps("e"))))))
        comp = Component(seq(Mv("r1", WInt(1)),
                             Halt(TInt(), NIL_STACK, "r1")),
                         ((real, real_block), (tramp, tramp_block)))
        out = thread_jumps(comp)
        assert [loc.name for loc, _ in out.heap] == ["real"]

    def test_non_identity_instantiation_kept(self):
        # a trampoline that *specializes* its target must not be removed
        zeps = (DeltaBind(KIND_ZETA, "z"), DeltaBind(KIND_EPS, "e"))
        cont = continuation_type(TInt(), StackTy((), "z"))
        real, tramp = Loc("real"), Loc("tramp")
        real_block = HCode(
            zeps, RegFileTy.of(r1=TInt(), ra=cont), StackTy((), "z"),
            QReg("ra"), seq(Ret("ra", "r1")))
        tramp_block = HCode(
            (), RegFileTy.of(r1=TInt()), NIL_STACK, END_INT,
            seq(Jmp(TyApp(WLoc(real),
                          (NIL_STACK, QEnd(TInt(), NIL_STACK))))))
        comp = Component(seq(Mv("r1", WInt(1)),
                             Halt(TInt(), NIL_STACK, "r1")),
                         ((real, real_block), (tramp, tramp_block)))
        out = thread_jumps(comp)
        assert len(out.heap) == 2

    def test_cycle_of_trampolines_left_alone(self):
        a, b = Loc("a"), Loc("b")
        block_a = HCode((), RegFileTy(), NIL_STACK, END_INT,
                        seq(Jmp(WLoc(b))))
        block_b = HCode((), RegFileTy(), NIL_STACK, END_INT,
                        seq(Jmp(WLoc(a))))
        comp = Component(seq(Jmp(WLoc(a))),
                         ((a, block_a), (b, block_b)))
        out = thread_jumps(comp)
        assert len(out.heap) == 2


class TestEquivalencePreservation:
    def test_fig16_style_program(self):
        """Optimizing the two-block Fig 16 variant: the intermediate
        sst/sld traffic collapses, and the result stays equivalent."""
        from repro.papers_examples.fig16_two_blocks import build_f2

        f2 = build_f2()
        comp = f2.body.fn.comp
        optimized = optimize_component(comp)
        f2_opt = Lam(f2.params,
                     App(Boundary(ARROW, optimized), (Var("x"),)))
        assert str(check_ft_expr(f2_opt)[0]) == "(int) -> int"
        report = check_equivalence(f2, f2_opt, ARROW, fuel=20_000,
                                   max_contexts=8)
        assert report.equivalent

    def test_compiled_code_shrinks_and_stays_equivalent(self):
        """The code generator's naive push/pop code is exactly what the
        optimizer targets; the pipeline's optimized output stays
        equivalent to the source."""
        from repro.compile import compile_term

        source = Lam((("x", FInt()),),
                     BinOp("+", BinOp("*", Var("x"), IntE(2)), IntE(1)))
        comp = compile_term(source, optimize=False).component
        optimized = optimize_component(comp)
        assert optimized == compile_term(source).component
        before = sum(len(h.instrs.instrs) for _, h in comp.heap)
        after = sum(len(h.instrs.instrs) for _, h in optimized.heap)
        assert after < before
        comp_opt = Lam(source.params,
                       App(Boundary(ARROW, optimized), (Var("x"),)))
        report = check_equivalence(source, comp_opt, ARROW, fuel=20_000,
                                   max_contexts=8)
        assert report.equivalent
