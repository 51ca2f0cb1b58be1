"""Differential lockstep suite: source F (CEK) vs whole-F compiled T.

The general tier's correctness claim is the paper's contextual
equivalence ``E[e_S] ~ E[FT e_T]``; the executable enforcement here is
*observational* lockstep over the generator of
:func:`tests.strategies.random_full_f_expr` -- closed, well-typed terms
spanning the whole language (escaping closures, multi-argument and
higher-order lambdas, tuples, unit, fold/unfold):

* **values**: source and compiled runs halt with the same canonical
  value (120 seeded cases; ISSUE acceptance asks for >= 100);
* **fuel verdicts**: under a shared :class:`Budget` whose fuel is below
  *both* sides' measured consumption, both report ``FuelExhausted`` --
  the observation relation's "both still running after k steps";
* **depth verdicts**: same construction for the stack-depth governor.

What is deliberately *not* asserted: equality of resource profiles.
Compilation changes them by design -- T code makes F applications into
jumps (so compiled depth is typically far *below* source depth) and
materializes closures/tuples in the T heap (so compiled heap is above
the source's, which for pure F terms is zero).  The asymmetry tests pin
that direction down so a regression in either direction is loud; the
cost model is documented in ``docs/performance.md``.
"""

import pytest

from repro.errors import (
    FuelExhausted, HeapExhausted, ResourceExhausted, StackDepthExhausted,
)
from repro.f.syntax import FInt, IntE, Lam, Proj, TupleE
from repro.f.typecheck import typecheck as f_typecheck
from repro.compile.pipeline import compile_term, jit_eligible
from repro.equiv.observation import canonical_value
from repro.ft.machine import FTMachine
from repro.resilience.budget import Budget
from tests.strategies import random_full_f_expr

#: seeds for the value-agreement sweep (the >= 100-case acceptance bar)
VALUE_SEEDS = range(120)
#: seeds for the (more expensive, re-running) starvation sweeps
STARVE_SEEDS = range(40)


def _term(seed: int):
    # alternate depths so both shallow and deeper shapes are in the mix
    return random_full_f_expr(seed, depth=3 + seed % 2)


def _run(e, budget=None):
    """(value, spent-dict) for one FT-machine run of a closed term."""
    machine = FTMachine(budget=budget or Budget())
    value = machine.evaluate(e)
    return value, machine.budget.spent()


class TestValueAgreement:
    """Source term and compiled replacement halt with the same value."""

    @pytest.mark.parametrize("seed", VALUE_SEEDS)
    def test_lockstep_value(self, seed):
        source = _term(seed)
        result = compile_term(source)
        src_value, _ = _run(source)
        cmp_value, _ = _run(result.wrapped)
        assert canonical_value(cmp_value) == canonical_value(src_value), (
            seed, source)

    def test_generator_is_well_typed_and_general(self):
        """The input distribution really is whole-F: every term
        typechecks at int, and a healthy share leaves the arithmetic
        fragment (escaping closures, tuples, fold)."""
        general = 0
        for seed in VALUE_SEEDS:
            source = _term(seed)
            assert f_typecheck(source) == FInt()
            if not jit_eligible(Lam((("_u", FInt()),), source)):
                general += 1
        assert general >= len(VALUE_SEEDS) // 2


class TestFuelStarvationLockstep:
    """A shared fuel budget below both sides' usage starves both."""

    @pytest.mark.parametrize("seed", STARVE_SEEDS)
    def test_both_exhaust(self, seed):
        source = _term(seed)
        result = compile_term(source)
        _, src_spent = _run(source)
        _, cmp_spent = _run(result.wrapped)
        fuel = min(src_spent["fuel_used"], cmp_spent["fuel_used"]) - 1
        if fuel < 1:
            pytest.skip("term halts in under two steps on one side")
        for program in (source, result.wrapped):
            with pytest.raises(FuelExhausted):
                FTMachine(budget=Budget(fuel=fuel)).evaluate(program)


class TestDepthStarvationLockstep:
    """A shared depth ceiling below both high-water marks starves both."""

    @pytest.mark.parametrize("seed", STARVE_SEEDS)
    def test_both_exhaust(self, seed):
        source = _term(seed)
        result = compile_term(source)
        _, src_spent = _run(source)
        _, cmp_spent = _run(result.wrapped)
        depth = min(src_spent["depth_high_water"],
                    cmp_spent["depth_high_water"]) - 1
        if depth < 1:
            pytest.skip("one side never nests")
        for program in (source, result.wrapped):
            with pytest.raises((StackDepthExhausted, ResourceExhausted)):
                FTMachine(budget=Budget(depth=depth)).evaluate(program)


class TestResourceProfileAsymmetry:
    """Compilation preserves observations, not resource profiles; pin
    the direction of the change so regressions are loud."""

    def test_compiled_heap_exceeds_source_heap(self):
        """Pure F tuples cost no heap interpreted, but the compiled code
        allocates them as T heap tuples -- so a zero heap budget is a
        verdict splitter, by design."""
        source = Proj(0, TupleE((IntE(1), IntE(2))))
        result = compile_term(source)
        src_value, src_spent = _run(source, Budget(heap=0))
        assert src_value == IntE(1)
        assert src_spent["heap_used"] == 0
        with pytest.raises(HeapExhausted):
            FTMachine(budget=Budget(heap=0)).evaluate(result.wrapped)

    def test_random_terms_source_heap_is_zero(self):
        for seed in range(20):
            _, spent = _run(_term(seed))
            assert spent["heap_used"] == 0

    def test_compiled_depth_is_flattened(self):
        """F application chains become T jumps: compiled depth high
        water stays constant while the source's grows with the chain."""
        from repro.f.syntax import App, BinOp, Lam, Var

        inc = Lam((("x", FInt()),),
                  BinOp("+", Var("x"), IntE(1)))
        expr = IntE(0)
        for _ in range(40):
            expr = App(inc, (expr,))
        _, src_spent = _run(expr)
        _, cmp_spent = _run(compile_term(expr).wrapped)
        assert src_spent["depth_high_water"] >= 39
        assert cmp_spent["depth_high_water"] <= 4
