"""Higher-order lambdas through the one compiler.

The compiler once had an arithmetic tier and an opt-in general tier;
the names below keep that vocabulary.  The general tier's work -- closed
lambdas that take or return functions -- is now done by the one
compiler: ``compile_function`` always accepts them, while ``jit_rewrite``
leaves them interpreted.
"""

from repro.compile import compile_function, compile_term, jit_rewrite
from repro.f.syntax import App, BinOp, FArrow, FInt, IntE, Lam, Var
from repro.ft.machine import evaluate_ft


def lam1(body):
    return Lam((("x", FInt()),), body)


HIGHER_ORDER = Lam((("g", FArrow((FInt(),), FInt())),),
                   App(Var("g"), (IntE(5),)))
INC = lam1(BinOp("+", Var("x"), IntE(1)))


class TestFacadeDefaults:
    def test_general_tier_is_opt_in(self):
        # compiling a higher-order lambda directly needs no opt-in ...
        compiled = compile_function(HIGHER_ORDER).wrapped
        assert isinstance(compiled, Lam)
        got, _ = evaluate_ft(App(compiled, (INC,)))
        assert got == IntE(6)
        # ... and the JIT rewrite leaves it interpreted
        rewritten = jit_rewrite(App(HIGHER_ORDER, (INC,)))
        assert "FT[((int) -> int) -> int]" not in str(rewritten)


class TestRewriteTierThreading:
    def test_all_tiers_rewrite_compiles_the_outer_lambda(self):
        rewritten = App(compile_term(HIGHER_ORDER).wrapped, (INC,))
        assert "FT[((int) -> int) -> int]" in str(rewritten)
        got, _ = evaluate_ft(rewritten)
        assert got == IntE(6)
