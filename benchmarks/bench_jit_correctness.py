"""Section 6 (JIT formalization), executable: for every move the JIT
makes -- replacing an eligible F lambda with compiled assembly -- the
source and replacement are contextually equivalent, and whole rewritten
programs agree with their sources.  Each case also records the fuel its
compiled replacement spends on one call."""

from repro.equiv.checker import check_equivalence
from repro.f.eval import evaluate
from repro.f.syntax import App, BinOp, FArrow, FInt, If0, IntE, Lam, Var
from repro.compile import compile_term, jit_rewrite
from repro.ft.machine import evaluate_ft

from tests.strategies import random_f_int_expr

INT_ARROW = FArrow((FInt(),), FInt())


def lam1(body):
    return Lam((("x", FInt()),), body)


CANDIDATES = [
    ("triple", lam1(BinOp("*", Var("x"), IntE(3)))),
    ("clamp", lam1(If0(Var("x"), IntE(0), Var("x")))),
    ("poly", lam1(BinOp("+", BinOp("*", Var("x"), Var("x")),
                        BinOp("*", Var("x"), IntE(-3))))),
    ("piecewise",
     lam1(If0(Var("x"), IntE(1),
              If0(BinOp("-", Var("x"), IntE(2)), IntE(4),
                  BinOp("*", Var("x"), IntE(5)))))),
]


def test_jit_per_function_equivalence(record):
    for name, source in CANDIDATES:
        result = compile_term(source)
        _, machine = evaluate_ft(App(result.wrapped, (IntE(3),)))
        report = check_equivalence(source, result.wrapped, INT_ARROW,
                                   fuel=25_000)
        record(f"jit {name}: {result.block_count()} block(s), "
               f"{machine.budget.fuel_used} fuel at x=3 -- {report}")
        assert report.equivalent


def test_jit_whole_program_battery(record):
    agreed = 0
    for seed in range(40):
        body = random_f_int_expr(seed, depth=2)
        prog = App(lam1(body), (IntE(seed % 7 - 3),))
        rewritten = jit_rewrite(prog)
        source_value = evaluate(prog, fuel=200_000)
        jit_value, _ = evaluate_ft(rewritten, fuel=400_000)
        assert jit_value == source_value
        agreed += 1
    record(f"jit: {agreed}/40 rewritten whole programs agree with source")


def test_bench_jit_compile(benchmark):
    source = CANDIDATES[3][1]

    def compile_():
        return compile_term(source)

    compiled = benchmark(compile_)
    assert compiled.block_count() == 4


def test_bench_jit_compiled_execution(benchmark):
    compiled = compile_term(CANDIDATES[2][1]).wrapped

    def run():
        value, _ = evaluate_ft(App(compiled, (IntE(9),)))
        return value

    assert benchmark(run) == IntE(54)


def test_bench_jit_equivalence_obligation(benchmark):
    source = CANDIDATES[0][1]
    compiled = compile_term(source).wrapped

    def check():
        return check_equivalence(source, compiled, INT_ARROW,
                                 fuel=15_000, max_contexts=8)

    assert benchmark(check).equivalent
