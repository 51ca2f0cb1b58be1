"""Unit tests for T type substitution and instantiation (repro.tal.subst)."""

import pytest

from repro.tal.subst import (
    delta_subst, free_type_vars, instantiate_code_block,
    instantiate_code_type, Subst, subst_chi, subst_term, subst_q,
    subst_stack, subst_ty,
)
from repro.tal.syntax import (
    CodeType, DeltaBind, Fold, Halt, HCode, InstrSeq, Jmp, KIND_ALPHA,
    KIND_EPS, KIND_ZETA, Loc, Mv, NIL_STACK, Pack, QEnd, QEps, QIdx, QReg,
    RegFileTy, RegOp, seq, StackTy, TBox, TExists, TInt, TRec, TRef,
    TupleTy, TUnit, TVar, TyApp, UnfoldI, Unpack, WInt, WLoc,
)

ALPHA = lambda name, ty: Subst.single(KIND_ALPHA, name, ty)
ZETA = lambda name, sigma: Subst.single(KIND_ZETA, name, sigma)
EPS = lambda name, q: Subst.single(KIND_EPS, name, q)


class TestSubstConstruction:
    def test_kind_checked(self):
        with pytest.raises(TypeError):
            Subst({(KIND_ALPHA, "a"): NIL_STACK})
        with pytest.raises(TypeError):
            Subst({(KIND_ZETA, "z"): TInt()})
        with pytest.raises(TypeError):
            Subst({(KIND_EPS, "e"): TInt()})

    def test_empty(self):
        assert Subst().is_empty()


class TestTypeSubst:
    def test_var_hit(self):
        assert subst_ty(TVar("a"), ALPHA("a", TInt())) == TInt()

    def test_var_miss(self):
        assert subst_ty(TVar("b"), ALPHA("a", TInt())) == TVar("b")

    def test_under_ref(self):
        assert subst_ty(TRef((TVar("a"),)), ALPHA("a", TInt())) == \
            TRef((TInt(),))

    def test_shadowed_binder(self):
        ty = TExists("a", TVar("a"))
        assert subst_ty(ty, ALPHA("a", TInt())) == ty

    def test_capture_avoided_in_exists(self):
        # (exists b. a)[b/a] must rename the binder
        ty = TExists("b", TVar("a"))
        out = subst_ty(ty, ALPHA("a", TVar("b")))
        assert isinstance(out, TExists)
        assert out.var != "b"
        assert out.body == TVar("b")

    def test_mu_substitution(self):
        ty = TRec("a", TRef((TVar("a"), TVar("b"))))
        out = subst_ty(ty, ALPHA("b", TInt()))
        assert out == TRec("a", TRef((TVar("a"), TInt())))


class TestStackSubst:
    def test_tail_replaced(self):
        sigma = StackTy((TInt(),), "z")
        out = subst_stack(sigma, ZETA("z", StackTy((TUnit(),), None)))
        assert out == StackTy((TInt(), TUnit()), None)

    def test_tail_replaced_by_variable_stack(self):
        sigma = StackTy((), "z")
        out = subst_stack(sigma, ZETA("z", StackTy((TInt(),), "w")))
        assert out == StackTy((TInt(),), "w")

    def test_prefix_types_substituted(self):
        sigma = StackTy((TVar("a"),), "z")
        out = subst_stack(sigma, ALPHA("a", TInt()))
        assert out == StackTy((TInt(),), "z")


class TestMarkerSubst:
    def test_eps_hit(self):
        assert subst_q(QEps("e"), EPS("e", QIdx(2))) == QIdx(2)

    def test_eps_to_end(self):
        end = QEnd(TInt(), NIL_STACK)
        assert subst_q(QEps("e"), EPS("e", end)) == end

    def test_end_components_substituted(self):
        q = QEnd(TVar("a"), StackTy((), "z"))
        s = Subst({(KIND_ALPHA, "a"): TInt(),
                   (KIND_ZETA, "z"): NIL_STACK})
        assert subst_q(q, s) == QEnd(TInt(), NIL_STACK)

    def test_reg_and_idx_inert(self):
        assert subst_q(QReg("ra"), EPS("e", QIdx(0))) == QReg("ra")
        assert subst_q(QIdx(1), EPS("e", QIdx(0))) == QIdx(1)


class TestCodeTypeSubst:
    def test_bound_vars_shielded(self):
        ct = CodeType((DeltaBind(KIND_ZETA, "z"),), RegFileTy(),
                      StackTy((), "z"), QEnd(TInt(), StackTy((), "z")))
        boxed = TBox(ct)
        out = subst_ty(boxed, ZETA("z", NIL_STACK))
        assert out == boxed

    def test_binder_renamed_on_capture(self):
        # forall[zeta z].{r1: a; z}end{int; z} with a := box forall[].{;z'}...
        # where the replacement mentions a *free* z: binder must rename.
        ct = CodeType((DeltaBind(KIND_ZETA, "z"),),
                      RegFileTy.of(r1=TVar("a")), StackTy((), "z"),
                      QEnd(TInt(), StackTy((), "z")))
        replacement = TBox(CodeType((), RegFileTy(), StackTy((), "z"),
                                    QEnd(TInt(), StackTy((), "z"))))
        out = subst_ty(TBox(ct), ALPHA("a", replacement))
        assert isinstance(out, TBox) and isinstance(out.psi, CodeType)
        new_binder = out.psi.delta[0].name
        assert new_binder != "z"
        # the replacement's free z must still be free (not captured)
        assert (KIND_ZETA, "z") in free_type_vars(out)


class TestInstrSeqSubst:
    def test_halt_annotations(self):
        iseq = seq(Halt(TVar("a"), StackTy((), "z"), "r1"))
        s = Subst({(KIND_ALPHA, "a"): TInt(), (KIND_ZETA, "z"): NIL_STACK})
        out = subst_term(iseq, s)
        assert out == seq(Halt(TInt(), NIL_STACK, "r1"))

    def test_operand_tyapp(self):
        iseq = seq(Mv("ra", TyApp(WLoc(Loc("l")), (StackTy((), "z"),
                                                   QEps("e")))),
                   Halt(TInt(), NIL_STACK, "r1"))
        s = Subst({(KIND_ZETA, "z"): NIL_STACK,
                   (KIND_EPS, "e"): QEnd(TInt(), NIL_STACK)})
        out = subst_term(iseq, s)
        mv = out.instrs[0]
        assert mv == Mv("ra", TyApp(WLoc(Loc("l")),
                                    (NIL_STACK, QEnd(TInt(), NIL_STACK))))

    def test_unpack_shadows_rest(self):
        # unpack <a, r1> u; halt a...  -- the alpha in the rest is bound.
        iseq = seq(Unpack("a", "r1", RegOp("r2")),
                   Halt(TVar("a"), NIL_STACK, "r1"))
        out = subst_term(iseq, ALPHA("a", TInt()))
        assert out.term == Halt(TVar("a"), NIL_STACK, "r1")

    def test_unpack_renames_on_capture(self):
        # substituting a := <something mentioning b> through unpack <b, ..>
        iseq = seq(Unpack("b", "r1", RegOp("r2")),
                   Halt(TRef((TVar("a"), TVar("b"))), NIL_STACK, "r1"))
        out = subst_term(iseq, ALPHA("a", TVar("b")))
        unpack = out.instrs[0]
        assert isinstance(unpack, Unpack)
        assert unpack.alpha != "b"
        halt = out.term
        assert halt.ty == TRef((TVar("b"), TVar(unpack.alpha)))


class TestInstantiation:
    CT = CodeType(
        (DeltaBind(KIND_ALPHA, "a"), DeltaBind(KIND_ZETA, "z"),
         DeltaBind(KIND_EPS, "e")),
        RegFileTy.of(r1=TVar("a")), StackTy((TVar("a"),), "z"), QEps("e"))

    def test_full_instantiation(self):
        out = instantiate_code_type(
            self.CT, (TInt(), NIL_STACK, QEnd(TInt(), NIL_STACK)))
        assert out.delta == ()
        assert out.chi.get("r1") == TInt()
        assert out.sigma == StackTy((TInt(),), None)
        assert out.q == QEnd(TInt(), NIL_STACK)

    def test_partial_instantiation(self):
        out = instantiate_code_type(self.CT, (TInt(),))
        assert len(out.delta) == 2
        assert out.sigma == StackTy((TInt(),), "z")

    def test_kind_mismatch_rejected(self):
        with pytest.raises(TypeError):
            instantiate_code_type(self.CT, (NIL_STACK,))

    def test_too_many_rejected(self):
        with pytest.raises(ValueError):
            delta_subst((), (TInt(),))

    def test_block_instantiation_rewrites_body(self):
        block = HCode(
            (DeltaBind(KIND_ZETA, "z"),), RegFileTy.of(r1=TInt()),
            StackTy((), "z"), QEnd(TInt(), StackTy((), "z")),
            seq(Halt(TInt(), StackTy((), "z"), "r1")))
        out = instantiate_code_block(block, (NIL_STACK,))
        assert out.delta == ()
        assert out.instrs == seq(Halt(TInt(), NIL_STACK, "r1"))


class TestFreeTypeVars:
    def test_code_type_binds(self):
        ct = TestInstantiation.CT
        assert free_type_vars(ct) == set()

    def test_free_in_stack(self):
        assert free_type_vars(StackTy((TVar("a"),), "z")) == \
            {(KIND_ALPHA, "a"), (KIND_ZETA, "z")}

    def test_free_in_marker(self):
        assert free_type_vars(QEps("e")) == {(KIND_EPS, "e")}
        assert free_type_vars(QEnd(TVar("a"), NIL_STACK)) == \
            {(KIND_ALPHA, "a")}

    def test_pack_operand(self):
        ex = TExists("a", TVar("a"))
        pack = Pack(TVar("b"), WInt(1), ex)
        assert free_type_vars(pack) == {(KIND_ALPHA, "b")}
