"""Tests for the JIT (paper section 6, executable): its scope, the
compiled replacements it installs, and whole-program rewriting.

The correctness criterion is the paper's: the source lambda and its
compiled replacement are contextually equivalent in FT."""

import pytest

from repro.equiv.checker import check_equivalence
from repro.errors import FTTypeError
from repro.f.eval import evaluate
from repro.f.syntax import (
    App, BinOp, FArrow, FInt, FUnit, If0, IntE, Lam, UnitE, Var,
)
from repro.ft.machine import evaluate_ft
from repro.ft.syntax import Boundary
from repro.ft.typecheck import check_ft_expr
from repro.compile import (
    CompileError, compile_function, jit_eligible, jit_rewrite,
)

from tests.strategies import random_f_int_expr


def lam1(body):
    return Lam((("x", FInt()),), body)


def jit(lam):
    """The drop-in replacement the JIT installs for ``lam``."""
    return compile_function(lam).wrapped


def blocks(lam):
    return len(compile_function(lam).component.heap)


class TestEligibility:
    def test_arithmetic_lambda(self):
        assert jit_eligible(lam1(BinOp("+", Var("x"), IntE(1))))

    def test_branching_lambda(self):
        assert jit_eligible(lam1(If0(Var("x"), IntE(1), Var("x"))))

    def test_non_int_param_rejected(self):
        assert not jit_eligible(Lam((("u", FUnit()),), IntE(1)))

    def test_free_variable_rejected(self):
        assert not jit_eligible(lam1(Var("y")))

    def test_higher_order_body_rejected(self):
        higher = lam1(App(lam1(Var("x")), (IntE(1),)))
        assert not jit_eligible(higher)

    def test_stack_lambda_rejected(self):
        from repro.papers_examples.push7 import build

        assert not jit_eligible(build())

    def test_compile_ineligible_raises(self):
        with pytest.raises(CompileError):
            compile_function(lam1(Var("y")))     # open: nothing to compile


class TestCompiledStructure:
    def test_replacement_shape(self):
        compiled = jit(lam1(Var("x")))
        assert isinstance(compiled, Lam)
        assert isinstance(compiled.body, App)
        assert isinstance(compiled.body.fn, Boundary)

    def test_straight_line_is_single_block(self):
        assert blocks(lam1(BinOp("*", Var("x"), IntE(2)))) == 1

    def test_branch_makes_three_blocks(self):
        assert blocks(lam1(If0(Var("x"), IntE(1), IntE(2)))) == 3

    def test_nested_branches_split_into_more_blocks(self):
        """Fig 16-style splitting: each ``if0`` adds blocks, and every
        path through them computes the source's answer."""
        source = lam1(If0(Var("x"), If0(Var("x"), IntE(1), IntE(2)),
                          IntE(3)))
        assert blocks(source) > blocks(lam1(If0(Var("x"), IntE(1),
                                                 IntE(2))))
        compiled = jit(source)
        for n in (0, 1):
            got, _ = evaluate_ft(App(compiled, (IntE(n),)))
            assert got == evaluate(App(source, (IntE(n),)))

    def test_compiled_code_typechecks(self):
        for body in (Var("x"),
                     BinOp("-", IntE(10), Var("x")),
                     If0(Var("x"), IntE(0), BinOp("*", Var("x"),
                                                  Var("x")))):
            ty, _ = check_ft_expr(jit(lam1(body)))
            assert str(ty) == "(int) -> int"


class TestCompiledBehaviour:
    CASES = [
        ("identity", lam1(Var("x"))),
        ("affine", lam1(BinOp("+", BinOp("*", Var("x"), IntE(3)),
                              IntE(7)))),
        ("branch", lam1(If0(Var("x"), IntE(100), Var("x")))),
        ("nested-branch",
         lam1(If0(Var("x"), IntE(0),
                  If0(BinOp("-", Var("x"), IntE(1)), IntE(1),
                      BinOp("*", Var("x"), Var("x")))))),
    ]

    @pytest.mark.parametrize("name,source",
                             CASES, ids=[n for n, _ in CASES])
    def test_pointwise_agreement(self, name, source):
        compiled = jit(source)
        for n in (-5, -1, 0, 1, 2, 9):
            want = evaluate(App(source, (IntE(n),)))
            got, _ = evaluate_ft(App(compiled, (IntE(n),)))
            assert got == want

    def test_two_arguments(self):
        source = Lam((("x", FInt()), ("y", FInt())),
                     BinOp("-", Var("x"), Var("y")))
        compiled = jit(source)
        got, _ = evaluate_ft(App(compiled, (IntE(10), IntE(3))))
        assert got == IntE(7)   # argument order preserved

    def test_three_arguments(self):
        source = Lam((("a", FInt()), ("b", FInt()), ("c", FInt())),
                     BinOp("-", BinOp("*", Var("a"), Var("b")), Var("c")))
        compiled = jit(source)
        got, _ = evaluate_ft(App(compiled, (IntE(2), IntE(3), IntE(4))))
        assert got == IntE(2)

    def test_equivalence_checker_confirms(self):
        source = lam1(If0(Var("x"), IntE(1), BinOp("*", Var("x"),
                                                   IntE(2))))
        report = check_equivalence(source, jit(source),
                                   FArrow((FInt(),), FInt()),
                                   fuel=20_000)
        assert report.equivalent

    def test_miscompilation_would_be_caught(self):
        """Sanity: the obligation is not vacuous -- a wrong 'compiler'
        output is refuted."""
        source = lam1(BinOp("+", Var("x"), IntE(1)))
        wrong = jit(lam1(BinOp("+", Var("x"), IntE(2))))
        report = check_equivalence(source, wrong,
                                   FArrow((FInt(),), FInt()),
                                   fuel=20_000)
        assert not report.equivalent


class TestJitRewrite:
    def test_whole_program(self):
        prog = App(lam1(BinOp("*", Var("x"), IntE(3))), (IntE(14),))
        rewritten = jit_rewrite(prog)
        got, _ = evaluate_ft(rewritten)
        assert got == IntE(42)

    def test_rewrite_descends_into_higher_order(self):
        apply_fn = Lam((("g", FArrow((FInt(),), FInt())),),
                       App(Var("g"), (IntE(5),)))
        prog = App(apply_fn, (lam1(BinOp("+", Var("x"), IntE(1))),))
        rewritten = jit_rewrite(prog)
        # the argument lambda was compiled (a boundary appeared)
        assert "FT[" in str(rewritten)
        got, _ = evaluate_ft(rewritten)
        assert got == IntE(6)

    def test_rewrite_preserves_ineligible_code(self):
        prog = App(Lam((("u", FUnit()),), IntE(1)), (UnitE(),))
        assert jit_rewrite(prog) == prog

    def test_random_compilable_bodies(self):
        hits = 0
        for seed in range(30):
            body = random_f_int_expr(seed, depth=2)
            lam = lam1(body)
            if not jit_eligible(lam):
                continue
            hits += 1
            compiled = jit(lam)
            for n in (-2, 0, 3):
                want = evaluate(App(lam, (IntE(n),)))
                got, _ = evaluate_ft(App(compiled, (IntE(n),)))
                assert got == want
        assert hits >= 5
