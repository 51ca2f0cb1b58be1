"""Unit tests for alpha-equivalence of T types (repro.tal.equality)."""

from repro.tal.equality import types_equal
from repro.tal.syntax import (
    CodeType, DeltaBind, KIND_ALPHA, KIND_EPS, KIND_ZETA, NIL_STACK, QEnd,
    QEps, QIdx, QOut, QReg, RegFileTy, StackTy, TBox, TExists, TInt, TRec,
    TRef, TupleTy, TUnit, TVar,
)


def cont(zeta="z", eps="e"):
    return TBox(CodeType((), RegFileTy.of(r1=TInt()),
                         StackTy((), zeta), QEps(eps)))


def arrow_ct(zeta="z", eps="e"):
    return CodeType(
        (DeltaBind(KIND_ZETA, zeta), DeltaBind(KIND_EPS, eps)),
        RegFileTy.of(ra=cont(zeta, eps)), StackTy((TInt(),), zeta),
        QReg("ra"))


class TestValueTypes:
    def test_base(self):
        assert types_equal(TInt(), TInt())
        assert types_equal(TUnit(), TUnit())
        assert not types_equal(TInt(), TUnit())

    def test_free_vars_by_name(self):
        assert types_equal(TVar("a"), TVar("a"))
        assert not types_equal(TVar("a"), TVar("b"))

    def test_exists_alpha(self):
        assert types_equal(TExists("a", TVar("a")),
                           TExists("b", TVar("b")))

    def test_mu_alpha(self):
        assert types_equal(TRec("a", TRef((TVar("a"),))),
                           TRec("b", TRef((TVar("b"),))))

    def test_ref_width(self):
        assert not types_equal(TRef((TInt(),)), TRef((TInt(), TInt())))

    def test_ref_vs_box_distinct(self):
        assert not types_equal(TRef((TInt(),)),
                               TBox(TupleTy((TInt(),))))


class TestCodeTypes:
    def test_renamed_binders_equal(self):
        assert types_equal(arrow_ct("z", "e"), arrow_ct("zz", "ee"))

    def test_binder_kind_order_matters(self):
        flipped = CodeType(
            (DeltaBind(KIND_EPS, "e"), DeltaBind(KIND_ZETA, "z")),
            RegFileTy.of(ra=cont()), StackTy((TInt(),), "z"), QReg("ra"))
        assert not types_equal(arrow_ct(), flipped)

    def test_marker_matters(self):
        other = CodeType(arrow_ct().delta, arrow_ct().chi,
                         arrow_ct().sigma, QReg("r1"))
        assert not types_equal(arrow_ct(), other)

    def test_extra_register_matters(self):
        bigger = CodeType(
            arrow_ct().delta,
            arrow_ct().chi.set("r2", TInt()),
            arrow_ct().sigma, QReg("ra"))
        assert not types_equal(arrow_ct(), bigger)

    def test_nested_shadowing(self):
        # forall[zeta z]. {..; z} with an inner code type rebinding z
        inner = CodeType((DeltaBind(KIND_ZETA, "z"),), RegFileTy(),
                         StackTy((), "z"), QOut())
        outer1 = CodeType((DeltaBind(KIND_ZETA, "z"),),
                          RegFileTy.of(r1=TBox(inner)), StackTy((), "z"),
                          QOut())
        inner2 = CodeType((DeltaBind(KIND_ZETA, "w"),), RegFileTy(),
                          StackTy((), "w"), QOut())
        outer2 = CodeType((DeltaBind(KIND_ZETA, "v"),),
                          RegFileTy.of(r1=TBox(inner2)), StackTy((), "v"),
                          QOut())
        assert types_equal(outer1, outer2)


class TestStacks:
    def test_nil(self):
        assert types_equal(NIL_STACK, NIL_STACK)

    def test_prefix_width(self):
        assert not types_equal(StackTy((TInt(),), None), NIL_STACK)

    def test_tail_kind(self):
        assert not types_equal(StackTy((), "z"), NIL_STACK)

    def test_free_tails_by_name(self):
        assert types_equal(StackTy((), "z"), StackTy((), "z"))
        assert not types_equal(StackTy((), "z"), StackTy((), "w"))


class TestMarkers:
    def test_reg(self):
        assert types_equal(QReg("ra"), QReg("ra"))
        assert not types_equal(QReg("ra"), QReg("r1"))

    def test_idx(self):
        assert types_equal(QIdx(2), QIdx(2))
        assert not types_equal(QIdx(2), QIdx(3))

    def test_end(self):
        assert types_equal(QEnd(TInt(), NIL_STACK), QEnd(TInt(), NIL_STACK))
        assert not types_equal(QEnd(TInt(), NIL_STACK),
                            QEnd(TUnit(), NIL_STACK))

    def test_cross_kind(self):
        assert not types_equal(QReg("ra"), QIdx(0))
        assert not types_equal(QOut(), QEps("e"))


class TestChis:
    def test_equal(self):
        assert types_equal(RegFileTy.of(r1=TInt()), RegFileTy.of(r1=TInt()))

    def test_domain_mismatch(self):
        assert not types_equal(RegFileTy.of(r1=TInt()),
                              RegFileTy.of(r2=TInt()))

    def test_alpha_in_entries(self):
        a = RegFileTy.of(r1=TExists("a", TVar("a")))
        b = RegFileTy.of(r1=TExists("b", TVar("b")))
        assert types_equal(a, b)
