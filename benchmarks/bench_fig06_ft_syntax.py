"""Fig 6 (FT syntax): the multi-language extensions -- boundaries, import,
protect, stack-modifying lambdas, the out marker -- and their traversals."""

from repro.f.syntax import FInt, free_vars, FUnit, IntE, subst_expr, Var
from repro.ft.syntax import (
    Boundary, FStackArrow, Import, Protect, StackDelta,
    StackLam,
)
from repro.papers_examples.push7 import build as build_push7
from repro.papers_examples.import_example import build_import_instruction
from repro.surface.parser import parse_fexpr
from repro.tal.syntax import (
    Component, Halt, NIL_STACK, QOut, seq, StackTy, TInt,
)


def test_fig06_all_forms(record):
    forms = [
        build_push7(),                      # stack-modifying lambda
        build_import_instruction(),         # import
        Protect((TInt(),), "z"),            # protect
        QOut(),                             # the out marker
        FStackArrow((FInt(),), FUnit(), (), (TInt(),)),
    ]
    record(f"fig6: {len(forms)} multi-language forms constructed")
    for f in forms:
        assert str(f)


def test_fig06_boundary_round_trip(record):
    lam = build_push7()
    assert parse_fexpr(str(lam)) == lam
    record("fig6: stack-modifying lambda round-trips through the parser")


def test_fig06_cross_language_substitution(record):
    comp = Component(seq(
        Import("r1", NIL_STACK, FInt(), Var("x")),
        Halt(TInt(), NIL_STACK, "r1")))
    b = Boundary(FInt(), comp)
    assert free_vars(b) == {"x"}
    closed = subst_expr(b, "x", IntE(7))
    assert free_vars(closed) == set()
    record("fig6: term substitution crosses the boundary into import")


def test_bench_fig06_substitution_through_boundary(benchmark):
    comp = Component(seq(
        Import("r1", NIL_STACK, FInt(), Var("x")),
        Halt(TInt(), NIL_STACK, "r1")))
    b = Boundary(FInt(), comp)

    def substitute():
        return subst_expr(b, "x", IntE(7))

    closed = benchmark(substitute)
    assert free_vars(closed) == set()
