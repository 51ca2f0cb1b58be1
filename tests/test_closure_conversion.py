"""Typed closure conversion: compiled closures stay in T.

A lambda whose type is not at the component's interface compiles to a
packed closure ``exists b. box <code, b>``, built with ``balloc``/``pack``
and called with ``unpack``/``call`` (:mod:`repro.compile.typerep`).  So a
compiled component crosses the F/T boundary only at its interface:

* compiled ``fact_f`` (Fig 17) crosses a fixed number of times whatever
  its argument, and its fuel grows by a fixed amount per level;
* interface arrows still keep Fig 9's bare code pointer, and a capturing
  lambda of such a type still materializes through an ``import``;
* generated programs compile, typecheck at their source type, and agree
  with the CEK source.
"""

import sys

import pytest

from repro import obs
from repro.compile.pipeline import compile_term, jit_rewrite
from repro.equiv.observation import canonical_value
from repro.f.syntax import App, BinOp, FArrow, FInt, IntE, Lam, Var
from repro.f.typecheck import typecheck as f_typecheck
from repro.ft.machine import FTMachine
from repro.ft.syntax import Import
from repro.ft.typecheck import check_ft_expr
from repro.papers_examples.fig17_factorial import build_fact_f
from repro.stdlib.prelude import twice
from repro.tal.syntax import HCode, Unpack
from tests.strategies import random_full_f_expr

I2I = FArrow((FInt(),), FInt())
PAIRS = [(f, t) for f in ("cek", "subst") for t in ("ref", "fast")]


@pytest.fixture(autouse=True)
def obs_off():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def fact():
    return compile_term(build_fact_f()).wrapped


def _crossings(term):
    """(value, fuel, F-to-T + T-to-F crossings) of one run of ``term``."""
    obs.enable(record=False)
    obs.reset()
    machine = FTMachine()
    value = machine.evaluate(term)
    counters = obs.OBS.metrics.snapshot()["counters"]
    obs.disable()
    crossings = (counters.get("ft.boundary.f_to_t", 0)
                 + counters.get("ft.boundary.t_to_f", 0))
    return value, machine.budget.fuel_used, crossings


def _instructions(comp):
    for _, h in comp.heap:
        if isinstance(h, HCode):
            yield from h.instrs.instrs
    yield from comp.instrs.instrs


class TestFactF:
    def test_crossings_are_constant_and_fuel_is_linear(self, fact):
        runs = [_crossings(App(fact, (IntE(n),))) for n in range(1, 11)]
        assert [str(v) for v, _, _ in runs] == [
            str(IntE(n)) for n in (1, 2, 6, 24, 120, 720, 5040, 40320,
                                    362880, 3628800)]
        assert {c for _, _, c in runs} == {3}
        steps = {b - a for (_, a, _), (_, b, _) in zip(runs, runs[1:])}
        assert steps == {78}

    @pytest.mark.parametrize("n,fuel", [(6, 541), (10, 853), (20, 1633)])
    def test_pinned_fuel(self, fact, n, fuel):
        machine = FTMachine()
        machine.evaluate(App(fact, (IntE(n),)))
        assert machine.budget.fuel_used == fuel

    @pytest.mark.parametrize("engine,tal_engine", PAIRS)
    def test_fact_20_on_every_engine_pair(self, fact, engine, tal_engine):
        assert sys.getrecursionlimit() == 1000  # CPython's default
        machine = FTMachine(engine=engine, tal_engine=tal_engine)
        value = machine.evaluate(App(fact, (IntE(20),)))
        assert value == IntE(2432902008176640000)
        assert machine.budget.fuel_used == 1633

    def test_closures_are_packed_and_called_in_t(self):
        result = compile_term(build_fact_f())
        assert result.clos.interface == frozenset()
        instrs = list(_instructions(result.component))
        assert any(isinstance(i, Unpack) for i in instrs)
        assert not any(isinstance(i, Import) for i in instrs)


class TestInterfaceEscapes:
    def test_returned_capturing_closure_materializes(self):
        add = Lam((("x", FInt()),),
                  Lam((("y", FInt()),), BinOp("+", Var("x"), Var("y"))))
        result = compile_term(add)
        assert result.clos.interface == frozenset({I2I})
        assert any(isinstance(i, Import)
                   for i in _instructions(result.component))
        ty, _ = check_ft_expr(result.wrapped)
        assert ty == f_typecheck(add)
        program = App(App(result.wrapped, (IntE(3),)), (IntE(4),))
        source = App(App(add, (IntE(3),)), (IntE(4),))
        assert FTMachine().evaluate(program) == \
            FTMachine().evaluate(source) == IntE(7)

    def test_wide_jit_twice_takes_an_arrow(self):
        twice_lam = Lam((("f", I2I),), twice(Var("f"), FInt()))
        inc = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
        source = App(App(twice_lam, (inc,)), (IntE(5),))
        jitted = jit_rewrite(source, wide=True)
        assert jitted != source
        assert compile_term(twice_lam).clos.interface == frozenset({I2I})
        assert FTMachine().evaluate(jitted) == \
            FTMachine().evaluate(source) == IntE(7)


class TestGeneratedPrograms:
    @pytest.mark.parametrize("seed", range(60))
    def test_compiles_typechecks_and_agrees(self, seed):
        term = random_full_f_expr(seed, depth=3 + seed % 2)
        result = compile_term(term)
        ty, _ = check_ft_expr(result.wrapped)
        assert ty == f_typecheck(term)
        # A closed int program has no interface arrows, so nothing inside
        # it crosses back to F.
        assert result.clos.interface == frozenset()
        assert not any(isinstance(i, Import)
                       for i in _instructions(result.component))
        value, _, crossings = _crossings(result.wrapped)
        assert canonical_value(value) == canonical_value(
            FTMachine(engine="cek").evaluate(term))
        assert crossings == 1
