"""Ablation/extension: the peephole optimizer (the constructive face of
Fig 16's block-structure irrelevance).  The compiler always runs it, so
the shrink is measured against closure conversion and code generation
alone (:func:`tests.strategies.raw_codegen`); the equivalence obligation
is re-checked on the optimized output."""

from repro.equiv.checker import check_equivalence
from repro.f.syntax import App, BinOp, FArrow, FInt, If0, IntE, Lam, Var
from repro.ft.machine import evaluate_ft
from repro.compile import compile_term
from repro.tal.optimize import optimize_component
from tests.strategies import raw_codegen

INT_ARROW = FArrow((FInt(),), FInt())


def _sources():
    return [
        ("affine", Lam((("x", FInt()),),
                       BinOp("+", BinOp("*", Var("x"), IntE(2)),
                             IntE(1)))),
        ("poly3", Lam((("x", FInt()),),
                      BinOp("+", BinOp("*",
                                       BinOp("*", Var("x"), Var("x")),
                                       Var("x")),
                            BinOp("*", Var("x"), IntE(-1))))),
        ("branchy", Lam((("x", FInt()),),
                        If0(Var("x"), IntE(9),
                            BinOp("*", Var("x"), Var("x"))))),
    ]


def _instr_count(comp):
    return (len(comp.instrs.instrs)
            + sum(len(h.instrs.instrs) for _, h in comp.heap))


def test_optimizer_shrinks_compiled_code(record):
    for name, source in _sources():
        comp = raw_codegen(source)
        optimized = compile_term(source).component
        before, after = _instr_count(comp), _instr_count(optimized)
        record(f"optimizer {name}: {before} -> {after} instructions "
               f"({100 * (before - after) // before}% smaller)")
        assert after < before


def test_optimizer_preserves_equivalence(record):
    for name, source in _sources():
        optimized = compile_term(source).wrapped
        report = check_equivalence(source, optimized, INT_ARROW,
                                   fuel=25_000, max_contexts=8)
        record(f"optimizer {name}: source ~ optimized -- {report}")
        assert report.equivalent


def test_bench_optimizer_pass(benchmark):
    comp = raw_codegen(_sources()[1][1])

    def optimize():
        return optimize_component(comp)

    out = benchmark(optimize)
    assert _instr_count(out) < _instr_count(comp)


def test_bench_optimized_execution(benchmark):
    name, source = _sources()[1]
    program = App(compile_term(source).wrapped, (IntE(5),))

    def run():
        value, _ = evaluate_ft(program)
        return value

    assert benchmark(run) == IntE(120)
