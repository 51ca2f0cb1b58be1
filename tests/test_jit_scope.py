"""The JIT's scope, compiled through the one compiler.

The JIT rewrites first-order all-``int`` lambdas (literals, parameters,
``+ - *``, ``if0``); any other closed lambda is compiled by calling
``compile_term`` on it.  For every in-scope lambda below -- handwritten
cases plus every in-scope ``random_f_int_expr(seed, depth=2)`` body for
seeds 0-39 -- the compiled component

* needs no ``import`` (no closures to materialize),
* returns the value the CEK engine computes for the source, and
* spends identical fuel on the ``ref`` and ``fast`` T engines.

The case set's total fuel is pinned below the 496 the retired
arithmetic emitter spent on it.
"""

import pytest

from repro.compile import (
    compile_function, compile_term, jit_eligible, jit_rewrite,
)
from repro.f.cek import cek_evaluate
from repro.f.syntax import App, BinOp, FArrow, FInt, If0, IntE, Lam, Var
from repro.ft.machine import FTMachine, evaluate_ft
from repro.ft.syntax import Import
from repro.resilience.safety_net import Quarantine, run_guarded

from tests.strategies import random_f_int_expr


def lam1(body):
    return Lam((("x", FInt()),), body)


HANDWRITTEN = [
    ("identity", lam1(Var("x"))),
    ("affine", lam1(BinOp("+", BinOp("*", Var("x"), IntE(3)), IntE(7)))),
    ("branch", lam1(If0(Var("x"), IntE(100), Var("x")))),
    ("nested-branch",
     lam1(If0(Var("x"), If0(Var("x"), IntE(1), IntE(2)), IntE(3)))),
    ("two-args", Lam((("x", FInt()), ("y", FInt())),
                     BinOp("-", Var("x"), Var("y")))),
    ("triple", lam1(BinOp("*", Var("x"), IntE(3)))),
    ("clamp", lam1(If0(Var("x"), IntE(0), Var("x")))),
    ("poly", lam1(BinOp("+", BinOp("*", Var("x"), Var("x")),
                        BinOp("*", Var("x"), IntE(-3))))),
    ("piecewise",
     lam1(If0(Var("x"), IntE(1),
              If0(BinOp("-", Var("x"), IntE(2)), IntE(4),
                  BinOp("*", Var("x"), IntE(5)))))),
]

GENERATED = [(f"seed{seed}", lam1(random_f_int_expr(seed, depth=2)))
             for seed in range(40)]

CASES = HANDWRITTEN + [(n, lam) for n, lam in GENERATED
                       if jit_eligible(lam)]

HIGHER_ORDER = Lam((("g", FArrow((FInt(),), FInt())),),
                   App(Var("g"), (IntE(5),)))
PROGRAM = App(HIGHER_ORDER, (lam1(BinOp("+", Var("x"), IntE(1))),))


def _instructions(component):
    yield from component.instrs.instrs
    for _, block in component.heap:
        yield from block.instrs.instrs


def _run(lam, args, tal_engine):
    machine = FTMachine(tal_engine=tal_engine)
    value = machine.evaluate(App(compile_function(lam).wrapped, args))
    return value, machine.budget.fuel_used


def test_generated_bodies_reach_the_scope():
    assert len(CASES) - len(HANDWRITTEN) >= 5


@pytest.mark.parametrize("name,lam", CASES, ids=[n for n, _ in CASES])
class TestInScopeLambdas:
    def test_no_import(self, name, lam):
        component = compile_function(lam).component
        assert not any(isinstance(i, Import)
                       for i in _instructions(component))

    def test_returns_the_cek_value(self, name, lam):
        for n in (-2, 0, 3):
            args = (IntE(n),) * len(lam.params)
            want = cek_evaluate(App(lam, args))
            assert _run(lam, args, "ref")[0] == want

    def test_fuel_identical_on_both_t_engines(self, name, lam):
        args = (IntE(3),) * len(lam.params)
        assert _run(lam, args, "ref") == _run(lam, args, "fast")


def test_case_set_fuel_total():
    total = sum(_run(lam, (IntE(3),) * len(lam.params), "ref")[1]
                for _, lam in CASES)
    assert total <= 460, total


class TestScope:
    def test_default_scope_is_first_order_arithmetic(self):
        assert not jit_eligible(HIGHER_ORDER)
        assert not jit_eligible(lam1(Var("y")))   # open

    def test_compile_function_covers_higher_order_lambdas(self):
        compiled = compile_function(HIGHER_ORDER).wrapped
        assert isinstance(compiled, Lam)
        inc = lam1(BinOp("+", Var("x"), IntE(1)))
        assert evaluate_ft(App(compiled, (inc,)))[0] == IntE(6)

    def test_default_rewrite_skips_higher_order_lambdas(self):
        rewritten = jit_rewrite(PROGRAM)
        assert "FT[(int) -> int]" in str(rewritten)
        assert "FT[((int) -> int) -> int]" not in str(rewritten)
        assert evaluate_ft(rewritten)[0] == IntE(6)

    def test_compiled_outer_and_inner_lambdas(self):
        rewritten = App(compile_term(HIGHER_ORDER).wrapped,
                        (compile_term(PROGRAM.args[0]).wrapped,))
        assert "FT[((int) -> int) -> int]" in str(rewritten)
        assert "FT[(int) -> int]" in str(rewritten)
        assert evaluate_ft(rewritten)[0] == IntE(6)

    def test_safety_net_follows_the_scope(self):
        q = Quarantine()
        value, _, report = run_guarded(PROGRAM, quarantine=q)
        assert value == IntE(6) and report.jitted == 1
        assert not report.fell_back
