"""Unit tests for the FT boundary type translation (paper Fig 9)."""

import pytest

from repro.errors import FTTypeError
from repro.f.syntax import (
    FArrow, FInt, FRec, FTupleT, FTVar, FUnit,
)
from repro.ft.syntax import FStackArrow
from repro.ft import translate
from repro.ft.translate import (
    arrow_code_type, continuation_type, EPS, type_translation, ZETA,
)
from repro.tal.equality import types_equal
from repro.tal.syntax import (
    CodeType, KIND_EPS, KIND_ZETA, QEps, QReg, RegFileTy, StackTy, TBox,
    TInt, TRec, TupleTy, TUnit, TVar,
)
from repro.tal.wellformed import check_type_wf
from tests.strategies import random_f_type


class TestBaseCases:
    def test_unit(self):
        assert type_translation(FUnit()) == TUnit()

    def test_int(self):
        assert type_translation(FInt()) == TInt()

    def test_type_variable(self):
        assert type_translation(FTVar("a")) == TVar("a")

    def test_mu(self):
        assert type_translation(FRec("a", FTVar("a"))) == \
            TRec("a", TVar("a"))

    def test_tuple_is_boxed(self):
        assert type_translation(FTupleT((FInt(), FUnit()))) == \
            TBox(TupleTy((TInt(), TUnit())))


class TestArrowTranslation:
    def test_unary_arrow_shape(self):
        ty = type_translation(FArrow((FInt(),), FInt()))
        assert isinstance(ty, TBox) and isinstance(ty.psi, CodeType)
        ct = ty.psi
        # forall[zeta z, eps e]
        assert [b.kind for b in ct.delta] == [KIND_ZETA, KIND_EPS]
        # return marker is ra
        assert ct.q == QReg("ra")
        # arguments on the stack over the abstract tail
        assert ct.sigma == StackTy((TInt(),), ZETA)
        # the continuation expects r1 : int over the bare tail, marker eps
        cont = ct.chi.get("ra")
        assert isinstance(cont, TBox) and isinstance(cont.psi, CodeType)
        assert cont.psi.delta == ()
        assert cont.psi.chi.get("r1") == TInt()
        assert cont.psi.sigma == StackTy((), ZETA)
        assert cont.psi.q == QEps(EPS)

    def test_argument_order_last_on_top(self):
        ty = type_translation(FArrow((FInt(), FUnit()), FInt()))
        assert ty.psi.sigma == StackTy((TUnit(), TInt()), ZETA)

    def test_nested_arrow_translates_argument(self):
        inner = FArrow((FInt(),), FInt())
        outer = type_translation(FArrow((inner,), FInt()))
        arg_ty = outer.psi.sigma.prefix[0]
        assert types_equal(arg_ty, type_translation(inner))

    def test_closed_result(self):
        ty = type_translation(FArrow((FInt(),), FInt()))
        check_type_wf((), ty)

    def test_translation_is_deterministic(self):
        a = type_translation(FArrow((FInt(),), FInt()))
        b = type_translation(FArrow((FInt(),), FInt()))
        assert a == b

    def test_matches_paper_fig9_printed_form(self):
        ty = type_translation(FArrow((FInt(),), FInt()))
        assert str(ty) == ("box forall[zeta z, eps e]."
                           "{ra: box forall[].{r1: int; z} e; int :: z} ra")


class TestStackArrowTranslation:
    def test_prefixes_threaded(self):
        ty = type_translation(
            FStackArrow((FInt(),), FUnit(), phi_in=(), phi_out=(TInt(),)))
        ct = ty.psi
        # input stack: arg :: phi_in :: zeta
        assert ct.sigma == StackTy((TInt(),), ZETA)
        # continuation stack: phi_out :: zeta
        cont = ct.chi.get("ra").psi
        assert cont.sigma == StackTy((TInt(),), ZETA)

    def test_phi_in_under_arguments(self):
        ty = type_translation(
            FStackArrow((FUnit(),), FInt(), phi_in=(TInt(),), phi_out=()))
        assert ty.psi.sigma == StackTy((TUnit(), TInt()), ZETA)

    def test_plain_arrow_is_special_case(self):
        plain = type_translation(FArrow((FInt(),), FInt()))
        stacky = type_translation(
            FStackArrow((FInt(),), FInt(), (), ()))
        assert types_equal(plain, stacky)


class TestHelpers:
    def test_continuation_type_shape(self):
        from repro.tal.retmarker import is_continuation_type

        assert is_continuation_type(
            continuation_type(TInt(), StackTy((), "z")))

    def test_arrow_code_type_unboxed(self):
        ct = arrow_code_type((TInt(),), TInt())
        assert isinstance(ct, CodeType)

    def test_unknown_type_rejected(self):
        class Weird(FTVar.__mro__[1]):  # a bare FType subclass
            def __str__(self):
                return "weird"

        with pytest.raises(FTTypeError, match="no translation"):
            type_translation(Weird())


class TestMemo:
    """``type_translation`` is memoized per (frozen, hashable) F type."""

    def test_same_type_same_object(self):
        ty = FArrow((FInt(), FTupleT((FInt(), FUnit()))), FRec("a", FInt()))
        assert type_translation(ty) is type_translation(ty)

    def test_equal_types_share_the_result(self):
        translate._TRANSLATION_CACHE.clear()
        first = type_translation(FArrow((FInt(),), FInt()))
        assert type_translation(FArrow((FInt(),), FInt())) is first

    def test_matches_uncached_translation(self, monkeypatch):
        types = [random_f_type(seed) for seed in range(200)]
        # twice over, so the second pass answers from the memo
        memoized = [type_translation(ty) for ty in types + types]

        class NoMemo:
            def get(self, key):
                return None

            def put(self, key, value):
                pass

        monkeypatch.setattr(translate, "_TRANSLATION_CACHE", NoMemo())
        uncached = [type_translation(ty) for ty in types]
        assert memoized == uncached + uncached
