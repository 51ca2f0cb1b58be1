"""Unit tests for the boundary value translations (paper Fig 10):
``TFtau`` (F to T), ``tauFT`` (T to F), the generated wrappers, and the
round trips between them.  Critically, the generated wrapper code must
itself typecheck -- that is what makes Fig 10 type-preserving."""

import gc
import weakref

import pytest

from repro.errors import MachineError
from repro.f.syntax import (
    App, BinOp, FArrow, FInt, Fold as FFold, FRec, FTupleT, FUnit, IntE,
    Lam, TupleE, UnitE, Var,
)
from repro.ft.boundary import (
    build_call_back_lambda, build_lambda_wrapper, build_stack_lambda_wrapper,
    f_to_t, t_to_f,
)
from repro.ft.machine import FTMachine
from repro.ft.syntax import FStackArrow, StackLam
from repro.ft.translate import type_translation
from repro.ft.typecheck import check_ft_expr, FTTypechecker
from repro.tal.equality import types_equal
from repro.tal.heap import Memory
from repro.tal.syntax import (
    BOX, Fold as TFold, HTuple, Loc, TInt, WInt, WLoc, WUnit,
)

INT_ARROW = FArrow((FInt(),), FInt())


class TestFirstOrderTranslations:
    def test_int_round_trip(self):
        mem = Memory()
        w = f_to_t(IntE(5), FInt(), mem)
        assert w == WInt(5)
        assert t_to_f(w, FInt(), mem) == IntE(5)

    def test_unit_round_trip(self):
        mem = Memory()
        w = f_to_t(UnitE(), FUnit(), mem)
        assert w == WUnit()
        assert t_to_f(w, FUnit(), mem) == UnitE()

    def test_type_mismatch_rejected(self):
        with pytest.raises(MachineError):
            f_to_t(UnitE(), FInt(), Memory())
        with pytest.raises(MachineError):
            t_to_f(WUnit(), FInt(), Memory())

    def test_non_value_rejected(self):
        with pytest.raises(MachineError, match="non-value"):
            f_to_t(BinOp("+", IntE(1), IntE(1)), FInt(), Memory())

    def test_tuple_allocates_boxed(self):
        mem = Memory()
        ty = FTupleT((FInt(), FUnit()))
        w = f_to_t(TupleE((IntE(1), UnitE())), ty, mem)
        assert isinstance(w, WLoc)
        cell = mem.lookup(w.loc)
        assert cell.nu == BOX
        assert cell.value == HTuple((WInt(1), WUnit()))

    def test_tuple_reads_back(self):
        mem = Memory()
        ty = FTupleT((FInt(), FInt()))
        w = f_to_t(TupleE((IntE(1), IntE(2))), ty, mem)
        assert t_to_f(w, ty, mem) == TupleE((IntE(1), IntE(2)))

    def test_nested_tuple(self):
        mem = Memory()
        ty = FTupleT((FTupleT((FInt(),)),))
        v = TupleE((TupleE((IntE(9),)),))
        assert t_to_f(f_to_t(v, ty, mem), ty, mem) == v

    def test_tuple_width_mismatch_detected(self):
        mem = Memory()
        w = f_to_t(TupleE((IntE(1),)), FTupleT((FInt(),)), mem)
        with pytest.raises(MachineError, match="width"):
            t_to_f(w, FTupleT((FInt(), FInt())), mem)

    def test_mu_translation(self):
        mem = Memory()
        mu = FRec("a", FInt())
        v = FFold(mu, IntE(3))
        w = f_to_t(v, mu, mem)
        assert isinstance(w, TFold)
        assert w.body == WInt(3)
        assert t_to_f(w, mu, mem) == v


class TestGeneratedWrappersTypecheck:
    def test_lambda_wrapper_block_typechecks(self):
        lam = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
        block = build_lambda_wrapper(lam, INT_ARROW)
        FTTypechecker().check_heap_value(block)

    def test_wrapper_type_is_the_translation(self):
        lam = Lam((("x", FInt()),), Var("x"))
        block = build_lambda_wrapper(lam, INT_ARROW)
        expected = type_translation(INT_ARROW)
        assert types_equal(block.code_type, expected.psi)

    def test_two_arg_wrapper_typechecks(self):
        arrow = FArrow((FInt(), FInt()), FInt())
        lam = Lam((("x", FInt()), ("y", FInt())),
                  BinOp("-", Var("x"), Var("y")))
        block = build_lambda_wrapper(lam, arrow)
        FTTypechecker().check_heap_value(block)
        assert types_equal(block.code_type, type_translation(arrow).psi)

    def test_higher_order_wrapper_typechecks(self):
        arrow = FArrow((INT_ARROW,), FInt())
        lam = Lam((("f", INT_ARROW),), App(Var("f"), (IntE(1),)))
        block = build_lambda_wrapper(lam, arrow)
        FTTypechecker().check_heap_value(block)

    def test_stack_lambda_wrapper_typechecks(self):
        from repro.tal.syntax import TInt as TI

        arrow = FStackArrow((FInt(),), FUnit(), (), (TI(),))
        from repro.papers_examples.push7 import build

        block = build_stack_lambda_wrapper(build(), arrow)
        FTTypechecker().check_heap_value(block)

    def test_stack_lambda_register_budget_enforced(self):
        arrow = FStackArrow(
            tuple([FInt()] * 6), FUnit(), (TInt(), TInt()), ())
        lam = StackLam(tuple((f"x{i}", FInt()) for i in range(6)),
                       UnitE(), (TInt(), TInt()), ())
        with pytest.raises(MachineError, match="register budget"):
            build_stack_lambda_wrapper(lam, arrow)

    def test_callback_lambda_typechecks(self):
        # wrap a code pointer (from f_to_t) back into F and typecheck it
        mem = Memory()
        lam = Lam((("x", FInt()),), Var("x"))
        w = f_to_t(lam, INT_ARROW, mem)
        wrapped = build_call_back_lambda(w, INT_ARROW, mem)
        # the wrapper references heap locations; expose them to the checker
        from repro.tal.syntax import HeapTy
        from repro.tal.typecheck import TalTypechecker

        entries = {}
        checker = FTTypechecker()
        for loc, cell in mem.heap.items():
            entries[loc] = (cell.nu, checker.check_heap_value(cell.value))
        ty, _ = check_ft_expr(wrapped, psi=HeapTy.of(entries))
        assert str(ty) == "(int) -> int"


class TestFunctionRoundTrip:
    def test_lambda_survives_the_boundary(self):
        machine = FTMachine()
        lam = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(3)))
        w = f_to_t(lam, INT_ARROW, machine.memory)
        wrapped = t_to_f(w, INT_ARROW, machine.memory)
        result = machine.eval_fexpr(App(wrapped, (IntE(7),)))
        assert result == IntE(21)

    def test_double_round_trip(self):
        machine = FTMachine()
        lam = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
        w1 = f_to_t(lam, INT_ARROW, machine.memory)
        back1 = t_to_f(w1, INT_ARROW, machine.memory)
        w2 = f_to_t(back1, INT_ARROW, machine.memory)
        back2 = t_to_f(w2, INT_ARROW, machine.memory)
        result = machine.eval_fexpr(App(back2, (IntE(10),)))
        assert result == IntE(11)

    def test_higher_order_round_trip(self):
        arrow = FArrow((INT_ARROW,), FInt())
        machine = FTMachine()
        apply_to_2 = Lam((("f", INT_ARROW),), App(Var("f"), (IntE(2),)))
        w = f_to_t(apply_to_2, arrow, machine.memory)
        wrapped = t_to_f(w, arrow, machine.memory)
        double = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(2)))
        result = machine.eval_fexpr(App(wrapped, (double,)))
        assert result == IntE(4)


class TestWrapperIsBuiltOncePerType:
    """Fig 10's wrapper depends only on the lambda and its type: it is
    built at the first crossing, kept on the lambda, and bound under a
    fresh label at every crossing."""

    def test_crossings_share_one_block_per_type(self):
        mem = Memory()
        lam = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(3)))
        first = f_to_t(lam, INT_ARROW, mem)
        second = f_to_t(lam, INT_ARROW, mem)
        assert first.loc != second.loc
        block = mem.code_at(first.loc)
        assert mem.code_at(second.loc) is block
        assert block == build_lambda_wrapper(lam, INT_ARROW)
        # an equal lambda is another value: it gets its own block
        twin = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(3)))
        assert mem.code_at(f_to_t(twin, INT_ARROW, mem).loc) is not block

    def test_a_second_type_gets_a_second_block(self):
        mem = Memory()
        lam = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(3)))
        stack_arrow = FStackArrow((FInt(),), FInt())
        plain = mem.code_at(f_to_t(lam, INT_ARROW, mem).loc)
        stack = mem.code_at(f_to_t(lam, stack_arrow, mem).loc)
        assert stack is not plain
        assert stack == build_stack_lambda_wrapper(lam, stack_arrow)
        assert mem.code_at(f_to_t(lam, stack_arrow, mem).loc) is stack
        assert mem.code_at(f_to_t(lam, INT_ARROW, mem).loc) is plain

    def test_the_memo_is_invisible(self):
        import pickle

        lam = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
        before = (pickle.dumps(lam), hash(lam), str(lam))
        f_to_t(lam, INT_ARROW, Memory())
        assert lam._wrappers
        assert before == (pickle.dumps(lam), hash(lam), str(lam))
        assert lam == Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
        assert not hasattr(pickle.loads(pickle.dumps(lam)), "_wrappers")

    def test_repeated_runs_reuse_the_lowered_block(self):
        lam = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(3)))
        blocks = set()
        for _ in range(3):
            machine = FTMachine()          # the default, fast, engine
            w = f_to_t(lam, INT_ARROW, machine.memory)
            wrapped = t_to_f(w, INT_ARROW, machine.memory)
            assert machine.eval_fexpr(App(wrapped, (IntE(7),))) == IntE(21)
            blocks.add(id(machine.memory.code_at(w.loc)._fast))
        assert len(blocks) == 1

    def test_dropped_lambda_frees_its_wrapper_block(self):
        """The memo lives on the lambda, so nothing outside it keeps the
        wrapper -- or the fast tier's block lowered from it -- alive."""
        machine = FTMachine()
        lam = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(3)))
        w = f_to_t(lam, INT_ARROW, machine.memory)
        wrapped = t_to_f(w, INT_ARROW, machine.memory)
        assert machine.eval_fexpr(App(wrapped, (IntE(7),))) == IntE(21)
        block = lam._wrappers[INT_ARROW]._fast
        assert block is not None
        dead = weakref.ref(block)
        del machine, lam, w, wrapped, block
        gc.collect()
        assert dead() is None
