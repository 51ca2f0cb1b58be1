"""Whole-system integration: programs that combine every feature at once
(higher-order F, embedded assembly, stack cells, foreign pointers, the JIT
compiler) -- the 'downstream user' workloads."""

import pytest

from repro.equiv.checker import check_equivalence
from repro.f.eval import evaluate
from repro.f.syntax import (
    App, BinOp, FArrow, FInt, FUnit, IntE, Lam, TupleE, Proj, UnitE, Var,
    FTupleT,
)
from repro.ft.machine import evaluate_ft
from repro.ft.typecheck import check_ft_expr
from repro.compile import compile_function, jit_rewrite
from repro.papers_examples.fig17_factorial import build_fact_t
from repro.stdlib.foreign import bump, counter_value, INT_CELL_LUMP, new_counter
from repro.stdlib.prelude import let_, seq_cell, twice
from repro.stdlib.refs import alloc_cell, free_cell, read_cell, write_cell
from repro.tal.syntax import TInt



def jit(lam):
    """The compiled drop-in replacement the JIT installs for ``lam``."""
    return compile_function(lam).wrapped


class TestMixedPrograms:
    def test_assembly_factorial_of_compiled_double(self):
        """factT (compiled_double 3) = 720 -- two separately generated
        assembly components composed through F."""
        double = jit(
            Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(2))))
        prog = App(build_fact_t(), (App(double, (IntE(3),)),))
        assert check_ft_expr(prog)[0] == FInt()
        value, _ = evaluate_ft(prog)
        assert value == IntE(720)

    def test_twice_over_assembly(self):
        """The pure-F 'twice' combinator applied to an assembly-backed
        function."""
        double = jit(
            Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(2))))
        prog = App(twice(double, FInt()), (IntE(5),))
        value, _ = evaluate_ft(prog)
        assert value == IntE(20)

    def test_tuple_of_mixed_results(self):
        fact = build_fact_t()
        double = jit(
            Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(2))))
        prog = Proj(1, TupleE((App(fact, (IntE(4),)),
                               App(double, (IntE(21),)))))
        value, _ = evaluate_ft(prog)
        assert value == IntE(42)

    def test_stack_cell_feeding_assembly(self):
        """Keep a running value in a stack cell, square it with compiled
        assembly, store it back."""
        square = jit(
            Lam((("x", FInt()),), BinOp("*", Var("x"), Var("x"))))
        INT = (TInt(),)
        prog = seq_cell(
            App(alloc_cell(), (IntE(7),)), "_", FUnit(),
            seq_cell(
                App(read_cell(), (UnitE(),)), "v", FInt(),
                seq_cell(
                    App(write_cell(), (App(square, (Var("v"),)),)),
                    "_w", FUnit(),
                    seq_cell(
                        App(read_cell(), (UnitE(),)), "w", FInt(),
                        seq_cell(App(free_cell(), (UnitE(),)), "_f",
                                 FUnit(), Var("w"), (), ()),
                        INT, ()),
                    INT, ()),
                INT, ()),
            INT, ())
        assert check_ft_expr(prog)[0] == FInt()
        value, machine = evaluate_ft(prog)
        assert value == IntE(49)
        assert machine.memory.depth == 0

    def test_lump_counter_driving_factorial(self):
        """Mutable heap state (lump) supplies the factorial's argument."""
        prog = let_(
            "c", INT_CELL_LUMP, App(new_counter(), (IntE(3),)),
            let_("u1", FUnit(), App(bump(), (Var("c"),)),
                 let_("u2", FUnit(), App(bump(), (Var("c"),)),
                      App(build_fact_t(),
                          (App(counter_value(), (Var("c"),)),)))))
        value, _ = evaluate_ft(prog)
        assert value == IntE(120)   # 5!

    def test_jit_rewrite_of_a_combinator_pipeline(self):
        compose2 = Lam(
            (("f", FArrow((FInt(),), FInt())),
             ("g", FArrow((FInt(),), FInt())),
             ("x", FInt())),
            App(Var("f"), (App(Var("g"), (Var("x"),)),)))
        inc = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
        trip = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(3)))
        prog = App(compose2, (inc, trip, IntE(13)))
        rewritten = jit_rewrite(prog)
        assert evaluate(prog) == IntE(40)
        value, _ = evaluate_ft(rewritten)
        assert value == IntE(40)

    def test_equivalence_of_pipeline_vs_fused(self):
        """inc . triple, compiled separately, is equivalent to the fused
        compiled function 3x+1."""
        inc_trip = jit(
            Lam((("x", FInt()),),
                BinOp("+", BinOp("*", Var("x"), IntE(3)), IntE(1))))
        staged = Lam(
            (("x", FInt()),),
            App(jit(
                Lam((("y", FInt()),), BinOp("+", Var("y"), IntE(1)))),
                (App(jit(
                    Lam((("z", FInt()),), BinOp("*", Var("z"), IntE(3)))),
                    (Var("x"),)),)))
        report = check_equivalence(inc_trip, staged,
                                   FArrow((FInt(),), FInt()),
                                   fuel=30_000)
        assert report.equivalent


class TestDeepNesting:
    def test_boundaries_nest_many_levels(self):
        """F(T(F(T(...)))) nesting through repeated compiled wrappers."""
        inner = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
        f = inner
        for _ in range(4):
            f = jit(
                Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1))))
            inner = Lam((("x", FInt()),),
                        App(f, (App(inner, (Var("x"),)),)))
        value, _ = evaluate_ft(App(inner, (IntE(0),)))
        assert value == IntE(5)

    def test_many_sequential_boundaries(self):
        double = jit(
            Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(2))))
        e = IntE(1)
        for _ in range(8):
            e = App(double, (e,))
        value, machine = evaluate_ft(e)
        assert value == IntE(256)
