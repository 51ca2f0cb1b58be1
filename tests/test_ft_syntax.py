"""Unit tests for FT syntax: boundaries, stack lambdas, import/protect,
and the cross-language traversals (substitution in both directions)."""

import pytest

from repro.f.syntax import (
    App, BinOp, FArrow, FInt, free_vars, ftype_equal, FUnit, IntE, Lam,
    subst_expr, subst_ftype, Var, free_tvars,
)
from repro.ft.syntax import (
    Boundary, FStackArrow, Import, Protect, StackDelta, StackLam,
)
from repro.papers_examples.import_example import build as build_import
from repro.tal.subst import free_type_vars, Subst, subst_term
from repro.tal.syntax import (
    Component, Halt, InstrSeq, KIND_ZETA, Mv, NIL_STACK, QEnd, Salloc, seq,
    Sst, StackTy, TInt, TUnit, TVar, WInt, WUnit,
)


def push_component(tail="z"):
    return Component(seq(
        Protect((), tail),
        Mv("r1", WInt(7)),
        Salloc(1),
        Sst(0, "r1"),
        Mv("r1", WUnit()),
        Halt(TUnit(), StackTy((TInt(),), tail), "r1"),
    ))


class TestStackDelta:
    def test_identity_apply(self):
        sigma = StackTy((TInt(),), "z")
        assert StackDelta().apply(sigma) == sigma

    def test_push_and_pop(self):
        sigma = StackTy((TInt(), TUnit()), "z")
        delta = StackDelta(pops=1, pushes=(TUnit(),))
        assert delta.apply(sigma) == StackTy((TUnit(), TUnit()), "z")

    def test_boundary_prints_delta(self):
        b = Boundary(FUnit(), push_component(),
                     StackDelta(pushes=(TInt(),)))
        assert "; 0; <int>" in str(b)

    def test_identity_boundary_prints_plain(self):
        b = Boundary(FInt(), build_import())
        assert str(b).startswith("FT[int](")


class TestStackArrowType:
    def test_equality_includes_prefixes(self):
        a = FStackArrow((FInt(),), FUnit(), (TInt(),), ())
        b = FStackArrow((FInt(),), FUnit(), (TInt(),), ())
        c = FStackArrow((FInt(),), FUnit(), (), ())
        assert ftype_equal(a, b)
        assert not ftype_equal(a, c)

    def test_not_equal_to_plain_arrow(self):
        a = FStackArrow((FInt(),), FUnit(), (), ())
        b = FArrow((FInt(),), FUnit())
        assert not ftype_equal(a, b)
        assert not ftype_equal(b, a)

    def test_subst_hook(self):
        from repro.f.syntax import FTVar

        a = FStackArrow((FTVar("a"),), FTVar("a"), (TInt(),), ())
        out = subst_ftype(a, "a", FInt())
        assert out == FStackArrow((FInt(),), FInt(), (TInt(),), ())

    def test_ftv_hook(self):
        from repro.f.syntax import FTVar

        a = FStackArrow((FTVar("a"),), FTVar("b"), (TInt(),), ())
        assert free_tvars(a) == {"a", "b"}


class TestStackLam:
    def test_is_lam_subclass(self):
        lam = StackLam((("x", FInt()),), Var("x"), (TInt(),), (TInt(),))
        assert isinstance(lam, Lam)

    def test_prints_prefixes(self):
        lam = StackLam((("x", FInt()),), Var("x"), (TInt(),), ())
        assert str(lam) == "lam[int; ] (x: int). x"

    def test_substitution_preserves_annotations(self):
        lam = StackLam((("x", FInt()),), BinOp("+", Var("x"), Var("y")),
                       (TInt(),), (TInt(),))
        out = subst_expr(lam, {"y": IntE(1)})
        assert isinstance(out, StackLam)
        assert out.phi_in == (TInt(),)


class TestCrossLanguageFreeVars:
    def test_boundary_component_vars_seen(self):
        comp = Component(seq(
            Import("r1", NIL_STACK, FInt(), Var("x")),
            Halt(TInt(), NIL_STACK, "r1")))
        b = Boundary(FInt(), comp)
        assert free_vars(b) == {"x"}

    def test_lambda_still_binds_through_boundary(self):
        comp = Component(seq(
            Import("r1", NIL_STACK, FInt(), Var("x")),
            Halt(TInt(), NIL_STACK, "r1")))
        lam = Lam((("x", FInt()),), Boundary(FInt(), comp))
        assert free_vars(lam) == set()

    def test_subst_descends_into_import(self):
        comp = Component(seq(
            Import("r1", NIL_STACK, FInt(), Var("x")),
            Halt(TInt(), NIL_STACK, "r1")))
        b = Boundary(FInt(), comp)
        out = subst_expr(b, {"x": IntE(9)})
        assert free_vars(out) == set()
        imp = out.comp.instrs.instrs[0]
        assert imp.expr == IntE(9)

    def test_subst_reaches_local_blocks(self):
        from repro.tal.syntax import HCode, Jmp, Loc, QEnd, RegFileTy, WLoc

        label = Loc("l")
        block = HCode((), RegFileTy(), NIL_STACK, QEnd(TInt(), NIL_STACK),
                      seq(Import("r1", NIL_STACK, FInt(), Var("x")),
                          Halt(TInt(), NIL_STACK, "r1")))
        comp = Component(seq(Jmp(WLoc(label))), ((label, block),))
        out = subst_expr(Boundary(FInt(), comp), {"x": IntE(3)})
        assert free_vars(out) == set()


class TestTalSubstThroughF:
    def test_import_annotations_substituted(self):
        iseq = seq(
            Import("r1", StackTy((), "z"), FInt(), IntE(1)),
            Halt(TInt(), StackTy((), "z"), "r1"))
        out = subst_term(
            iseq, Subst.single(KIND_ZETA, "z", NIL_STACK))
        imp = out.instrs[0]
        assert imp.protected == NIL_STACK
        assert out.term == Halt(TInt(), NIL_STACK, "r1")

    def test_protect_binds_over_rest(self):
        iseq = seq(
            Protect((), "z"),
            Halt(TUnit(), StackTy((), "z"), "r1"))
        # substituting for z must not touch the bound occurrences
        out = subst_term(
            iseq, Subst.single(KIND_ZETA, "z", NIL_STACK))
        assert out == iseq

    def test_protect_renames_on_capture(self):
        # substituting w := ...z... through protect z must rename z
        iseq = seq(
            Protect((), "z"),
            Halt(TVar("a"), StackTy((), "w"), "r1"))
        out = subst_term(
            iseq, Subst.single(KIND_ZETA, "w", StackTy((), "z")))
        protect = out.instrs[0]
        assert protect.zeta != "z"
        assert out.term.sigma == StackTy((), "z")

    def test_nested_boundary_substituted(self):
        inner = Boundary(FInt(), Component(seq(
            Mv("r1", WInt(1)),
            Halt(TInt(), StackTy((), "z"), "r1"))))
        iseq = seq(
            Import("r1", StackTy((), "z"), FInt(), inner),
            Halt(TInt(), StackTy((), "z"), "r1"))
        out = subst_term(
            iseq, Subst.single(KIND_ZETA, "z", NIL_STACK))
        inner_out = out.instrs[0].expr
        assert inner_out.comp.instrs.term == Halt(TInt(), NIL_STACK, "r1")

    def test_tal_ftv_of_fexpr(self):
        b = Boundary(FInt(), Component(seq(
            Mv("r1", WInt(1)),
            Halt(TInt(), StackTy((), "z"), "r1"))))
        assert (KIND_ZETA, "z") in free_type_vars(b)

    def test_free_type_vars_through_import(self):
        iseq = seq(
            Import("r1", StackTy((), "z"), FInt(), IntE(1)),
            Halt(TInt(), NIL_STACK, "r1"))
        assert (KIND_ZETA, "z") in free_type_vars(iseq)
