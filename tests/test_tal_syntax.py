"""Unit tests for T abstract syntax and its context structures (Fig 1)."""

import pickle

import pytest

from repro.link.fingerprint import canonical_encoding
from repro.tal.subst import free_type_vars
from repro.tal.syntax import (
    Aop, Call, check_register, CodeType, Component, DeltaBind, Fold, Halt,
    HCode, HeapTy, HTuple, InstrSeq, Jmp, Loc, Mv, NIL_STACK, Pack, QEnd,
    QEps, QIdx, QOut, QReg, RegFileTy, RegOp, Ret, Salloc, seq, Sfree,
    StackTy, TBox, TExists, TInt, TRec, TRef, TupleTy, TUnit, TVar, TyApp,
    WInt, WLoc, WUnit, is_word_value, BOX, KIND_EPS, KIND_ZETA, REF,
)


class TestRegisters:
    def test_valid_registers(self):
        for r in ("r1", "r7", "ra"):
            assert check_register(r) == r

    def test_invalid_register(self):
        with pytest.raises(ValueError):
            check_register("r8")

    def test_instruction_validates_registers(self):
        with pytest.raises(ValueError):
            Mv("r9", WInt(1))


class TestStackTy:
    def test_nil_prints(self):
        assert str(NIL_STACK) == "nil"

    def test_prefix_and_tail_print(self):
        sigma = StackTy((TInt(), TUnit()), "z")
        assert str(sigma) == "int :: unit :: z"

    def test_cons_pushes_front(self):
        sigma = NIL_STACK.cons(TInt(), TUnit())
        assert sigma.prefix == (TInt(), TUnit())

    def test_slot_lookup(self):
        sigma = StackTy((TInt(), TUnit()), None)
        assert sigma.slot(1) == TUnit()

    def test_slot_out_of_range(self):
        with pytest.raises(IndexError):
            StackTy((TInt(),), "z").slot(1)

    def test_drop(self):
        sigma = StackTy((TInt(), TUnit()), "z").drop(1)
        assert sigma == StackTy((TUnit(),), "z")

    def test_drop_too_many(self):
        with pytest.raises(IndexError):
            NIL_STACK.drop(1)

    def test_set_slot(self):
        sigma = StackTy((TInt(),), "z").set_slot(0, TUnit())
        assert sigma.slot(0) == TUnit()

    def test_with_tail_concatenates(self):
        front = StackTy((TInt(),), "z")
        full = front.with_tail(StackTy((TUnit(),), None))
        assert full == StackTy((TInt(), TUnit()), None)

    def test_with_tail_requires_abstract(self):
        with pytest.raises(ValueError):
            NIL_STACK.with_tail(NIL_STACK)


def _continuation_chain(depth):
    """The stack typing of a call ``depth`` levels deep: each level saves
    a return continuation typed with the stack below it, so the typing
    is a DAG whose tree size doubles per level."""
    sigma = StackTy((), "z")
    for _ in range(depth):
        cont = TBox(CodeType((), RegFileTy.of(r1=TInt()), sigma, QEps("e")))
        sigma = StackTy((cont, TInt()), "z").with_tail(sigma)
    return sigma


class TestTypeMemo:
    def test_deep_sharing_is_linear(self):
        sigma = _continuation_chain(40)          # tree size ~2^40
        assert isinstance(hash(sigma), int)
        assert free_type_vars(sigma) == {(KIND_ZETA, "z"),
                                         (KIND_EPS, "e")}

    def test_memos_are_invisible(self):
        sigma = _continuation_chain(3)
        hash(sigma)
        free_type_vars(sigma)
        fresh = _continuation_chain(3)
        assert sigma == fresh and hash(sigma) == hash(fresh)
        clone = pickle.loads(pickle.dumps(sigma))
        assert clone == sigma and hash(clone) == hash(sigma)
        assert canonical_encoding(sigma) == canonical_encoding(fresh)


class TestRegFileTy:
    def test_empty_prints_dot(self):
        assert str(RegFileTy()) == "."

    def test_of_and_get(self):
        chi = RegFileTy.of(r1=TInt(), ra=TUnit())
        assert chi.get("r1") == TInt()
        assert chi.get("r2") is None

    def test_set_updates(self):
        chi = RegFileTy.of(r1=TInt()).set("r1", TUnit())
        assert chi.get("r1") == TUnit()

    def test_set_extends(self):
        chi = RegFileTy().set("r3", TInt())
        assert "r3" in chi

    def test_without(self):
        chi = RegFileTy.of(r1=TInt(), r2=TInt()).without("r1")
        assert "r1" not in chi and "r2" in chi

    def test_canonical_ordering(self):
        a = RegFileTy((("r2", TInt()), ("r1", TUnit())))
        b = RegFileTy((("r1", TUnit()), ("r2", TInt())))
        assert a == b

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            RegFileTy((("r1", TInt()), ("r1", TUnit())))


class TestHeapTy:
    def test_lookup(self):
        psi = HeapTy.of({Loc("l"): (BOX, TupleTy((TInt(),)))})
        assert psi.get(Loc("l")) == (BOX, TupleTy((TInt(),)))

    def test_missing(self):
        assert HeapTy().get(Loc("l")) is None

    def test_extend_and_contains(self):
        a = HeapTy.of({Loc("a"): (BOX, TupleTy(()))})
        b = HeapTy.of({Loc("b"): (REF, TupleTy((TInt(),)))})
        both = a.extend(b)
        assert Loc("a") in both and Loc("b") in both

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            HeapTy(((Loc("l"), BOX, TupleTy(())),
                    (Loc("l"), BOX, TupleTy(())),))

    def test_bad_mutability_rejected(self):
        with pytest.raises(ValueError):
            HeapTy(((Loc("l"), "mut", TupleTy(())),))


class TestWordAndSmallValues:
    def test_words_are_word_values(self):
        for w in (WUnit(), WInt(3), WLoc(Loc("l"))):
            assert is_word_value(w)

    def test_register_operand_is_not_word(self):
        assert not is_word_value(RegOp("r1"))

    def test_pack_propagates(self):
        ex = TExists("a", TVar("a"))
        assert is_word_value(Pack(TInt(), WInt(1), ex))
        assert not is_word_value(Pack(TInt(), RegOp("r1"), ex))

    def test_fold_propagates(self):
        mu = TRec("a", TInt())
        assert is_word_value(Fold(mu, WInt(1)))
        assert not is_word_value(Fold(mu, RegOp("r1")))

    def test_tyapp_propagates(self):
        assert is_word_value(TyApp(WLoc(Loc("l")), (TInt(),)))
        assert not is_word_value(TyApp(RegOp("r1"), (TInt(),)))

    def test_tyapp_rejects_non_omega(self):
        with pytest.raises(TypeError):
            TyApp(WLoc(Loc("l")), (42,))


class TestInstrSeq:
    def test_seq_builds(self):
        iseq = seq(Mv("r1", WInt(1)), Halt(TInt(), NIL_STACK, "r1"))
        assert len(iseq.instrs) == 1
        assert isinstance(iseq.term, Halt)

    def test_seq_requires_terminator(self):
        with pytest.raises(ValueError):
            seq(Mv("r1", WInt(1)))

    def test_seq_rejects_misplaced_terminator(self):
        with pytest.raises(TypeError):
            seq(Halt(TInt(), NIL_STACK, "r1"), Mv("r1", WInt(1)),
                Halt(TInt(), NIL_STACK, "r1"))

    def test_cons_and_rest(self):
        iseq = seq(Salloc(1), Sfree(1), Halt(TInt(), NIL_STACK, "r1"))
        assert iseq.head == Salloc(1)
        assert iseq.rest.head == Sfree(1)
        assert iseq.cons(Mv("r1", WInt(0))).head == Mv("r1", WInt(0))

    def test_rest_of_empty_raises(self):
        iseq = seq(Halt(TInt(), NIL_STACK, "r1"))
        with pytest.raises(IndexError):
            iseq.rest


class TestComponent:
    def test_heap_dict(self):
        block = HCode((), RegFileTy.of(r1=TInt()), NIL_STACK,
                      QEnd(TInt(), NIL_STACK),
                      seq(Halt(TInt(), NIL_STACK, "r1")))
        comp = Component(seq(Jmp(WLoc(Loc("l")))), ((Loc("l"), block),))
        assert comp.heap_dict() == {Loc("l"): block}

    def test_duplicate_labels_rejected(self):
        tup = HTuple((WInt(1),))
        with pytest.raises(ValueError):
            Component(seq(Halt(TInt(), NIL_STACK, "r1")),
                      ((Loc("l"), tup), (Loc("l"), tup)))

    def test_accepts_dict_heap(self):
        comp = Component(seq(Halt(TInt(), NIL_STACK, "r1")),
                         {Loc("l"): HTuple((WInt(1),))})
        assert comp.heap[0][0] == Loc("l")


class TestPrinting:
    def test_code_type_prints(self):
        ct = CodeType(
            (DeltaBind("zeta", "z"), DeltaBind("eps", "e")),
            RegFileTy.of(r1=TInt()), StackTy((), "z"), QReg("ra"))
        assert str(ct) == "forall[zeta z, eps e].{r1: int; z} ra"

    def test_markers_print(self):
        assert str(QReg("ra")) == "ra"
        assert str(QIdx(2)) == "2"
        assert str(QEps("e")) == "e"
        assert str(QOut()) == "out"
        assert str(QEnd(TInt(), NIL_STACK)) == "end{int; nil}"

    def test_ref_and_box_print(self):
        assert str(TRef((TInt(),))) == "ref <int>"
        assert str(TBox(TupleTy((TInt(), TUnit())))) == "box <int, unit>"

    def test_instructions_print(self):
        assert str(Aop("add", "r1", "r2", WInt(3))) == "add r1, r2, 3"
        assert str(Call(WLoc(Loc("l")), NIL_STACK,
                        QEnd(TInt(), NIL_STACK))) == \
            "call l {nil, end{int; nil}}"
        assert str(Ret("ra", "r1")) == "ret ra {r1}"
