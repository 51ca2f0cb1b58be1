"""Unit tests for the whole-F compiler (:mod:`repro.compile`).

ISSUE acceptance pinned here: every closed pure-F paper example and
every pure-F stdlib prelude combinator compiles to a T component whose
wrapped form typechecks in FT at the source type -- plus the pipeline's
own contracts (eligibility, memoization identity, metrics, IR
pretty-printing, wrapper shape).
"""

import pytest

from repro import obs
from repro.errors import CompileError
from repro.f.syntax import (
    App, BinOp, FArrow, FExpr, FInt, Fold, FUnit, If0, IntE, Lam, Proj,
    TupleE, Unfold, UnitE, Var,
)
from repro.f.typecheck import typecheck as f_typecheck
from repro.ft.machine import evaluate_ft
from repro.ft.syntax import Boundary
from repro.ft.typecheck import check_ft_expr
from repro.compile.pipeline import (
    CompilationResult, clear_compile_cache, compile_term,
    is_general_compilable, jit_eligible,
)
from repro.papers_examples import example_entries
from repro.stdlib.prelude import compose, const_, identity, let_, twice
from repro.tal.syntax import Component

INC = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
DBL = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(2)))


def _pure_f(e) -> bool:
    """Is ``e`` built from core-F constructors only (no boundaries, no
    stack lambdas)?  The compiler's domain."""
    if isinstance(e, (IntE, UnitE, Var)):
        return True
    if isinstance(e, BinOp):
        return _pure_f(e.left) and _pure_f(e.right)
    if isinstance(e, If0):
        return all(_pure_f(x) for x in (e.cond, e.then, e.els))
    if isinstance(e, Lam) and type(e) is Lam:
        return _pure_f(e.body)
    if isinstance(e, App):
        return _pure_f(e.fn) and all(_pure_f(a) for a in e.args)
    if isinstance(e, TupleE):
        return all(_pure_f(x) for x in e.items)
    if isinstance(e, Proj):
        return _pure_f(e.body)
    if isinstance(e, Fold):
        return _pure_f(e.body)
    if isinstance(e, Unfold):
        return _pure_f(e.body)
    return False


def _assert_compiles_and_typechecks(source: FExpr) -> None:
    want = f_typecheck(source)
    result = compile_term(source)
    assert isinstance(result.component, Component)
    assert result.block_count() >= 1
    assert result.ty == want
    ty, _ = check_ft_expr(result.wrapped)
    assert ty == want


class TestPaperExamples:
    """Every closed pure-F paper example compiles and typechecks."""

    def _pure_entries(self):
        out = {}
        for name, (_, build) in example_entries().items():
            node = build()
            if not isinstance(node, Component) and _pure_f(node):
                out[name] = node
        return out

    def test_registry_has_pure_f_examples(self):
        pure = self._pure_entries()
        assert "fact-f" in pure and "jit-source" in pure

    @pytest.mark.parametrize("name", ["fact-f", "jit-source"])
    def test_example_compiles(self, name):
        _assert_compiles_and_typechecks(self._pure_entries()[name])

    def test_all_pure_examples_compile(self):
        for name, node in self._pure_entries().items():
            assert is_general_compilable(node), name
            _assert_compiles_and_typechecks(node)

    def test_factorial_runs_compiled(self):
        node = self._pure_entries()["fact-f"]
        result = compile_term(node)
        value, _ = evaluate_ft(result.wrapped)
        assert value == IntE(720)


class TestPreludeCombinators:
    """Every pure-F prelude combinator compiles, typechecks, and agrees
    with the interpreter pointwise.  (``seq_cell`` is excluded: it is a
    StackLam wrapper over a T component, outside the compiler's domain.)
    """

    CASES = [
        ("identity", lambda: identity(FInt())),
        ("const", lambda: const_(FInt(), IntE(7), FUnit())),
        ("compose", lambda: compose(INC, DBL, FInt(), FInt(), FInt())),
        ("twice", lambda: twice(INC, FInt())),
    ]

    @pytest.mark.parametrize("name,build", CASES,
                             ids=[n for n, _ in CASES])
    def test_combinator_compiles(self, name, build):
        _assert_compiles_and_typechecks(build())

    def test_let_compiles(self):
        _assert_compiles_and_typechecks(
            let_("x", FInt(), IntE(3), BinOp("*", Var("x"), Var("x"))))

    def test_compiled_combinators_agree_pointwise(self):
        cases = [
            (App(identity(FInt()), (IntE(4),)), IntE(4)),
            (App(compose(INC, DBL, FInt(), FInt(), FInt()), (IntE(5),)),
             IntE(11)),
            (App(twice(INC, FInt()), (IntE(0),)), IntE(2)),
            (App(const_(FInt(), IntE(7), FUnit()), (UnitE(),)), IntE(7)),
        ]
        for program, want in cases:
            result = compile_term(program)
            got, _ = evaluate_ft(result.wrapped)
            assert got == want, program


class TestTierSelection:
    """What the compiler covers, and what the JIT's scope admits."""

    def test_general_covers_what_arith_cannot(self):
        ho = Lam((("g", FArrow((FInt(),), FInt())),),
                 App(Var("g"), (IntE(5),)))
        assert is_general_compilable(ho)
        assert not jit_eligible(ho)            # the JIT's scope
        assert jit_eligible(INC)

    def test_no_tier_for_stack_lambda(self):
        from repro.papers_examples.push7 import build

        assert not is_general_compilable(build())
        with pytest.raises(CompileError):
            compile_term(build())

    def test_no_tier_for_boundary_terms(self):
        _, build = example_entries()["fact-t"]
        assert not is_general_compilable(build())

    def test_no_tier_for_open_terms_without_gamma(self):
        assert not is_general_compilable(Var("y"))
        with pytest.raises(CompileError):
            compile_term(BinOp("+", Var("y"), IntE(1)))

    def test_open_term_compiles_under_gamma(self):
        gamma = {"y": FInt()}
        result = compile_term(BinOp("+", Var("y"), IntE(1)), gamma)
        assert result.free == (("y", FInt()),)


class TestPipelineContracts:
    def test_a_cold_compile_types_its_source_once(self, monkeypatch):
        from repro.compile import pipeline

        passes = []

        def counted(e, env=None):
            passes.append(e)
            return f_typecheck(e, env)

        monkeypatch.setattr(pipeline, "f_typecheck", counted)
        clear_compile_cache()
        probe = Lam((("k", FInt()),), App(twice(DBL, FInt()), (Var("k"),)))
        result = compile_term(probe)
        assert passes == [probe]
        assert result.ty == f_typecheck(probe)
        compile_term(probe)                  # a cache hit types nothing
        assert passes == [probe]

    @pytest.mark.parametrize("source", [
        BinOp("+", IntE(1), UnitE()),
        example_entries()["fact-t"][1](),    # F around a boundary
    ], ids=["ill-typed", "boundary"])
    def test_ineligible_source_is_a_compile_error(self, source):
        with pytest.raises(CompileError) as info:
            compile_term(source)
        assert info.value.judgment == "compile.eligibility"

    def test_cache_identity(self):
        clear_compile_cache()
        one = compile_term(INC)
        two = compile_term(INC)
        assert two is one

    def test_cache_keys_on_gamma(self):
        clear_compile_cache()
        open_plain = compile_term(Var("y"), {"y": FInt()})
        assert compile_term(Var("y"), {"y": FUnit()}) is not open_plain

    def test_wrapper_shape_lambda(self):
        result = compile_term(INC)
        assert isinstance(result.wrapped, Lam)
        assert isinstance(result.wrapped.body, App)
        assert isinstance(result.wrapped.body.fn, Boundary)

    def test_wrapper_shape_expression(self):
        result = compile_term(BinOp("+", IntE(1), IntE(2)))
        assert isinstance(result.wrapped, Boundary)
        got, _ = evaluate_ft(result.wrapped)
        assert got == IntE(3)

    def test_pretty_ir(self):
        result = compile_term(INC)
        assert "code" in result.pretty_ir() or result.clos is not None
        rebuilt = CompilationResult(result.source, result.ty,
                                    result.wrapped, result.component)
        assert "no closure IR" in rebuilt.pretty_ir()

    def test_compile_metrics(self):
        obs.disable()
        obs.reset()
        obs.enable(record=False)
        try:
            clear_compile_cache()
            probe = Lam((("k", FInt()),),
                        App(twice(INC, FInt()), (Var("k"),)))
            compile_term(probe)
            compile_term(probe)     # cache hit: no second compile count
            counters = obs.OBS.metrics.snapshot()["counters"]
            assert counters.get("compile.compile") == 1
            assert not any(k.startswith("compile.tier.")
                           for k in counters)
            assert counters.get("jit.compile") == 1
            assert counters.get("jit.cache.miss", 0) >= 1
            assert counters.get("jit.cache.hit", 0) >= 1
            assert counters.get("compile.blocks", 0) >= 1
        finally:
            obs.disable()
            obs.reset()
