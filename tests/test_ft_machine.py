"""Unit tests for the FT mixed-language machine (paper Fig 8):
boundary reductions, import/protect execution, shared fuel, traces."""

import re
import sys

import pytest

from repro.errors import FuelExhausted, MachineError
from repro.f.syntax import (
    App, BinOp, FArrow, FExpr, FInt, FType, FUnit, If0, IntE, Lam, TupleE,
    UnitE, Var,
)
from repro.compile.pipeline import compile_term
from repro.ft.machine import evaluate_ft, FTMachine, run_ft_component
from repro.ft.syntax import Boundary, Import, Protect, StackDelta
from repro.papers_examples import (
    fig11_jit, fig16_two_blocks, fig17_factorial, import_example, push7,
)
from repro.resilience.budget import Budget
from repro.stdlib.prelude import compose, twice
from repro.tal.syntax import (
    Component, Halt, Mv, NIL_STACK, Operand, QEnd, Salloc, seq, Sst,
    StackTy, TalType, TInt, TUnit, WInt, WUnit,
)


class TestImportInstruction:
    def test_import_evaluates_and_translates(self):
        halted, machine = run_ft_component(import_example.build())
        assert halted.word == WInt(import_example.EXPECTED_RESULT)

    def test_import_may_run_nested_assembly(self):
        inner = Boundary(FInt(), Component(seq(
            Mv("r1", WInt(21)),
            Halt(TInt(), NIL_STACK, "r1"))))
        comp = Component(seq(
            Import("r1", NIL_STACK, FInt(), BinOp("*", inner, IntE(2))),
            Halt(TInt(), NIL_STACK, "r1")))
        halted, _ = run_ft_component(comp)
        assert halted.word == WInt(42)

    def test_protect_is_runtime_noop(self):
        comp = Component(seq(
            Protect((), "z"),
            Mv("r1", WInt(1)),
            Halt(TInt(), StackTy((), "z"), "r1")))
        halted, _ = run_ft_component(comp)
        assert halted.word == WInt(1)


class TestBoundaryReduction:
    def test_boundary_of_int(self):
        b = Boundary(FInt(), Component(seq(
            Mv("r1", WInt(5)), Halt(TInt(), NIL_STACK, "r1"))))
        value, _ = evaluate_ft(b)
        assert value == IntE(5)

    def test_boundary_inside_arithmetic(self):
        b = Boundary(FInt(), Component(seq(
            Mv("r1", WInt(5)), Halt(TInt(), NIL_STACK, "r1"))))
        value, _ = evaluate_ft(BinOp("+", IntE(1), b))
        assert value == IntE(6)

    def test_boundary_as_branch(self):
        b = Boundary(FInt(), Component(seq(
            Mv("r1", WInt(5)), Halt(TInt(), NIL_STACK, "r1"))))
        value, _ = evaluate_ft(If0(IntE(1), IntE(0), b))
        assert value == IntE(5)

    def test_stack_lambda_pushes(self):
        lam = push7.build()
        machine = FTMachine()
        value = machine.eval_fexpr(App(lam, (IntE(0),)))
        assert value == UnitE()
        assert machine.memory.snapshot_stack() == (WInt(7),)

    def test_mistranslated_boundary_is_stuck(self):
        # component halts with unit but the boundary claims int
        b = Boundary(FInt(), Component(seq(
            Mv("r1", WUnit()), Halt(TUnit(), NIL_STACK, "r1"))))
        with pytest.raises(MachineError):
            evaluate_ft(b)


class TestSharedFuel:
    def test_fuel_spans_languages(self):
        # a T loop inside an F context exhausts the same budget
        from repro.tal.syntax import HCode, Jmp, Loc, QEnd, RegFileTy, WLoc

        target = Loc("spin")
        block = HCode((), RegFileTy(), NIL_STACK, QEnd(TInt(), NIL_STACK),
                      seq(Jmp(WLoc(target))))
        spin = Boundary(FInt(), Component(seq(Jmp(WLoc(target))),
                                          ((target, block),)))
        with pytest.raises(FuelExhausted):
            evaluate_ft(BinOp("+", IntE(1), spin), fuel=2_000)

    def test_f_divergence_exhausts(self):
        fact = fig17_factorial.build_fact_f()
        with pytest.raises(FuelExhausted):
            evaluate_ft(App(fact, (IntE(-1),)), fuel=5_000)

    def test_t_divergence_exhausts(self):
        fact = fig17_factorial.build_fact_t()
        with pytest.raises(FuelExhausted):
            evaluate_ft(App(fact, (IntE(-1),)), fuel=5_000)


class TestPaperPrograms:
    def test_fig16_both_variants(self):
        for build in (fig16_two_blocks.build_f1, fig16_two_blocks.build_f2):
            for n in (0, 3, -4):
                value, _ = evaluate_ft(App(build(), (IntE(n),)))
                assert value == IntE(n + 2)

    def test_fig17_factorials_agree(self):
        ff = fig17_factorial.build_fact_f()
        ft = fig17_factorial.build_fact_t()
        for n in range(0, 7):
            vf, _ = evaluate_ft(App(ff, (IntE(n),)))
            vt, _ = evaluate_ft(App(ft, (IntE(n),)))
            assert vf == vt == IntE(fig17_factorial.expected(n))

    def test_fig11_jit_result(self):
        value, _ = evaluate_ft(fig11_jit.build_jit())
        assert value == IntE(fig11_jit.EXPECTED_RESULT)

    def test_fig11_source_result(self):
        from repro.f.eval import evaluate

        assert evaluate(fig11_jit.build_source()) == \
            IntE(fig11_jit.EXPECTED_RESULT)


class TestTraces:
    def test_boundary_events_emitted(self):
        b = Boundary(FInt(), Component(seq(
            Mv("r1", WInt(5)), Halt(TInt(), NIL_STACK, "r1"))))
        _, machine = evaluate_ft(b, trace=True)
        kinds = [ev.kind for ev in machine.trace]
        assert "boundary" in kinds and "halt" in kinds

    def test_fig12_shape(self):
        """The Fig 12 control flow: the call into g's wrapper, the callback
        call into lh, and the two shim returns."""
        _, machine = evaluate_ft(fig11_jit.build_jit(), trace=True)
        control = [(ev.kind, ev.pretty_label()) for ev in machine.trace
                   if ev.kind in ("call", "ret", "jmp")]
        # l calls g (wrapped), the wrapper calls back into lh, lh returns
        # to the wrapper's lend, then lgret and lend unwind.
        kinds = [k for k, _ in control]
        assert kinds == ["call", "call", "call", "ret", "ret", "ret"]
        targets = [t for _, t in control]
        assert targets[0] == "l"
        assert "lh" in targets
        assert "lgret" in targets
        assert targets.count("lend") == 2


#: The detail strings of Fig 11's trace, fresh label numbers stripped.
FIG11_DETAILS = [
    ("boundary", "FT[(((int) -> int) -> int) -> int] enter"),
    ("enter", "merged 3 block(s)"),
    ("halt", "r1 -> l"),
    ("boundary", "FT[(((int) -> int) -> int) -> int] -> lam (x1: ((int) "
                 "-> int) -> int). FT[int](protect <>, z; import r1, z "
                 "TF[((int) -> int) -> int] (x1); salloc 1; sst 0, r1; "
                 "mv ra, lend[z]; call l {z, end{int; z}}, .)"),
    ("boundary", "FT[int] enter"),
    ("enter", "merged 0 block(s)"),
    ("boundary", "TF[((int) -> int) -> int] enter"),
    ("boundary", "TF[((int) -> int) -> int] -> r1 = lam"),
    ("boundary", "TF[int] enter"),
    ("boundary", "FT[(int) -> int] enter"),
    ("enter", "merged 0 block(s)"),
    ("halt", "r1 -> lh"),
    ("boundary", "FT[(int) -> int] -> lam (x1: int). FT[int](protect <>, "
                 "z; import r1, z TF[int] (x1); salloc 1; sst 0, r1; mv "
                 "ra, lend[z]; call lh {z, end{int; z}}, .)"),
    ("boundary", "FT[int] enter"),
    ("enter", "merged 0 block(s)"),
    ("boundary", "TF[int] enter"),
    ("boundary", "TF[int] -> r1 = 1"),
    ("ret", "result in r1"),
    ("halt", "r1 -> 2"),
    ("boundary", "FT[int] -> 2"),
    ("boundary", "TF[int] -> r1 = 2"),
    ("ret", "result in r1"),
    ("ret", "result in r1"),
    ("halt", "r1 -> 2"),
    ("boundary", "FT[int] -> 2"),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestLazyTraceDetails:
    """Trace details are formatted only when an event is recorded: with
    tracing off, no F term, F type, T type or T value is printed."""

    @pytest.mark.parametrize("tal_engine", ["ref", "fast"])
    def test_untraced_run_formats_nothing(self, monkeypatch, tal_engine):
        inc = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
        dbl = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(2)))
        step = compose(inc, dbl, FInt(), FInt(), FInt())
        image = compile_term(
            App(twice(twice(step, FInt()), FInt()), (IntE(1),))).wrapped

        def boom(self):
            raise AssertionError(f"formatted a {type(self).__name__}")

        for cls in (*_subclasses(FExpr), *_subclasses(FType),
                    *_subclasses(TalType), *_subclasses(Operand)):
            if "__str__" in vars(cls):
                monkeypatch.setattr(cls, "__str__", boom)
        machine = FTMachine(tal_engine=tal_engine)
        assert machine.evaluate(image) == IntE(31)

    @pytest.mark.parametrize("tal_engine", ["ref", "fast"])
    def test_traced_details_unchanged(self, tal_engine):
        machine = FTMachine(trace=True, tal_engine=tal_engine)
        assert machine.evaluate(fig11_jit.build_jit()) == IntE(2)
        details = [(ev.kind, re.sub(r"%\d+", "", ev.detail))
                   for ev in machine.trace if ev.detail]
        assert details == FIG11_DETAILS


class TestRunComponentEntry:
    def test_fuel_override(self):
        machine = FTMachine(fuel=10)
        comp = import_example.build()
        halted = machine.run_component(comp, fuel=100_000)
        assert halted.word == WInt(2)


class TestHostStackIndependence:
    """Boundary nesting lives on the machine's control stack, not the
    host's: compiled recursion runs under CPython's default recursion
    limit, and all four engine pairs reach the same verdict."""

    PAIRS = [(f, t) for f in ("cek", "subst") for t in ("ref", "fast")]

    @pytest.fixture(scope="class")
    def fact(self):
        return compile_term(fig17_factorial.build_fact_f()).wrapped

    @pytest.fixture(autouse=True)
    def default_limit(self):
        assert sys.getrecursionlimit() == 1000  # CPython's default

    @pytest.mark.parametrize("engine,tal_engine", PAIRS)
    def test_compiled_fact_8(self, fact, engine, tal_engine):
        machine = FTMachine(engine=engine, tal_engine=tal_engine)
        assert machine.evaluate(App(fact, (IntE(8),))) == IntE(40320)
        assert machine.budget.fuel_used == 18_973

    @pytest.mark.parametrize("engine,tal_engine", PAIRS)
    def test_compiled_fact_20_suspends_on_fuel(self, fact, engine,
                                               tal_engine):
        machine = FTMachine(budget=Budget(fuel=20_000), engine=engine,
                            tal_engine=tal_engine)
        with pytest.raises(FuelExhausted):
            machine.evaluate(App(fact, (IntE(20),)))
        assert machine.suspended
        machine.engine = "subst" if engine == "cek" else "cek"
        with pytest.raises(FuelExhausted):
            machine.resume(fuel=5_000)
        assert machine.suspended
        machine.tal_engine = "fast" if tal_engine == "ref" else "ref"
        with pytest.raises(FuelExhausted):
            machine.resume(fuel=5_000)
        assert machine.suspended
