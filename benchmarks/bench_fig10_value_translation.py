"""Fig 10 (boundary value translation): base values, tuples, mu, and both
function directions, including typechecking the generated wrapper code."""

from repro.f.syntax import (
    App, BinOp, FArrow, FInt, Fold, FRec, FTupleT, IntE, Lam, TupleE, Var,
)
from repro.ft.boundary import (
    build_lambda_wrapper, f_to_t, t_to_f,
)
from repro.ft.machine import FTMachine
from repro.ft.translate import type_translation
from repro.ft.typecheck import FTTypechecker
from repro.tal.equality import types_equal
from repro.tal.heap import Memory
from repro.tal.syntax import WInt

INT_ARROW = FArrow((FInt(),), FInt())


def test_fig10_first_order_clauses(record):
    mem = Memory()
    mu = FRec("a", FInt())
    cases = [
        (IntE(5), FInt()),
        (TupleE((IntE(1), IntE(2))), FTupleT((FInt(), FInt()))),
        (Fold(mu, IntE(1)), mu),
    ]
    for v, ty in cases:
        w = f_to_t(v, ty, mem)
        back = t_to_f(w, ty, mem)
        record(f"fig10 {ty}: {v}  |->  {w}  |->  {back}")
        assert back == v


def test_fig10_lambda_becomes_fig10_block(record):
    lam = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
    block = build_lambda_wrapper(lam, INT_ARROW)
    ops = [type(i).__name__ for i in block.instrs.instrs]
    record(f"fig10 wrapper body: {ops} then {type(block.instrs.term).__name__}")
    # salloc 1; sst 0, ra; import ...; sld ra, 0; sfree n+1; ret ra {r1}
    assert ops == ["Salloc", "Sst", "Import", "Sld", "Sfree"]
    FTTypechecker().check_heap_value(block)
    assert types_equal(block.code_type, type_translation(INT_ARROW).psi)
    record("fig10: wrapper typechecks at the Fig 9 translation type")


def test_fig10_function_round_trip_behaviour(record):
    machine = FTMachine()
    lam = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(5)))
    w = f_to_t(lam, INT_ARROW, machine.memory)
    back = t_to_f(w, INT_ARROW, machine.memory)
    result = machine.eval_fexpr(App(back, (IntE(8),)))
    record(f"fig10: (TF then FT)(x*5) applied to 8 = {result}")
    assert result == IntE(40)


def test_bench_fig10_wrapper_generation(benchmark):
    lam = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))

    def generate():
        return build_lambda_wrapper(lam, INT_ARROW)

    block = benchmark(generate)
    assert types_equal(block.code_type, type_translation(INT_ARROW).psi)


def test_bench_fig10_round_trip_call(benchmark):
    machine = FTMachine(fuel=10**9)
    lam = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
    w = f_to_t(lam, INT_ARROW, machine.memory)
    back = t_to_f(w, INT_ARROW, machine.memory)

    def call():
        return machine.eval_fexpr(App(back, (IntE(1),)))

    assert benchmark(call) == IntE(2)
