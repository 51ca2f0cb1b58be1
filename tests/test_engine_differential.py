"""Differential lockstep harness: the CEK engine against substitution.

The CEK machine (:mod:`repro.f.cek`) is the default F stepper, and its
correctness claim is *observational step-equivalence* with the literal
Fig-5 substitution loop: identical values, identical ``steps``,
identical fuel/heap/depth budget verdicts, identical suspension points
-- on every paper example, the stdlib, budget-exhaustion splits, and
random well-typed terms.  These tests are the enforcement of that claim
(ISSUE acceptance: "identical values, step counts, and budget verdicts
on every differential test").

Also covered here: the hash-consing/memoization layer this PR added
underneath both engines (:mod:`repro.caching`, the LRU caches in
:mod:`repro.tal.subst` / :mod:`repro.tal.equality`) and the serving
layer's treatment of ``engine`` as a non-semantic option.
"""

import pickle

import pytest

from repro import obs
from repro.errors import FuelExhausted
from repro.f.cek import (
    CEKEvaluator, DEFAULT_ENGINE, ENGINES, cek_evaluate, resolve_engine,
)
from repro.f.eval import FEvaluator, evaluate
from repro.f.syntax import (
    App, BinOp, FInt, FUnit, IntE, Lam, UnitE, Var, intern_ftype,
)
from repro.ft.machine import FTMachine, evaluate_ft
from repro.papers_examples import example_entries
from repro.papers_examples.fig17_factorial import build_fact_f
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import MachineSnapshot
from repro.stdlib.foreign import bump, counter_value, new_counter
from repro.stdlib.prelude import compose, identity, let_, seq_cell, twice
from repro.stdlib.refs import alloc_cell, free_cell, read_cell, write_cell
from repro.tal.equality import clear_equality_cache, types_equal
from repro.tal.subst import (
    Subst, clear_subst_caches, instantiate_code_type, subst_cache_stats,
    subst_ty,
)
from repro.tal.syntax import (
    CodeType, DeltaBind, KIND_ALPHA, NIL_STACK, QReg, RegFileTy, TInt,
    TRef, TUnit, TVar, intern_ty,
)
from tests.strategies import random_f_int_expr

INT_CELL = (TInt(),)


def _observe(build, engine, **kwargs):
    """(pretty value, steps, budget spend) for one engine run."""
    machine = FTMachine(engine=engine, **kwargs)
    value = machine.evaluate(build())
    return {
        "value": str(value),
        "steps": machine.steps,
        "spent": machine.budget.spent(),
    }


def _assert_lockstep(build, **kwargs):
    subst = _observe(build, "subst", **kwargs)
    cek = _observe(build, "cek", **kwargs)
    assert subst == cek
    return cek


class TestEngineSelection:
    def test_registry(self):
        assert ENGINES == ("subst", "cek")
        assert DEFAULT_ENGINE == "cek"
        assert resolve_engine(None) == "cek"
        assert resolve_engine("subst") == "subst"

    def test_unknown_engine_rejected(self):
        from repro.errors import FunTALError

        with pytest.raises(FunTALError):
            resolve_engine("graph-reduction")

    def test_machine_default_is_cek(self):
        assert FTMachine().engine == "cek"
        assert FTMachine(engine="subst").engine == "subst"


class TestExamplesLockstep:
    """Every paper example: same value, steps, and budget spend."""

    @pytest.mark.parametrize("name", sorted(example_entries()))
    def test_example(self, name):
        _, build = example_entries()[name]
        _assert_lockstep(build)

    def test_deep_factorial(self):
        _assert_lockstep(lambda: App(build_fact_f(), (IntE(60),)))


class TestStdlibLockstep:
    """Prelude combinators, the mutable-cell library, foreign counters."""

    def test_prelude_combinators(self):
        inc = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
        dbl = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(2)))
        programs = [
            lambda: App(identity(FInt()), (IntE(4),)),
            lambda: App(compose(inc, dbl, FInt(), FInt(), FInt()),
                        (IntE(5),)),
            lambda: App(twice(inc, FInt()), (IntE(0),)),
            lambda: let_("x", FInt(), IntE(3),
                         BinOp("*", Var("x"), Var("x"))),
        ]
        for build in programs:
            _assert_lockstep(build)

    def test_refs_cell_roundtrip(self):
        def build():
            return seq_cell(
                App(alloc_cell(), (IntE(1),)), "_", FUnit(),
                seq_cell(App(write_cell(), (IntE(99),)), "_w", FUnit(),
                         seq_cell(App(read_cell(), (UnitE(),)), "v",
                                  FInt(),
                                  seq_cell(App(free_cell(), (UnitE(),)),
                                           "_f", FUnit(), Var("v"),
                                           (), ()),
                                  INT_CELL, ()),
                         INT_CELL, ()),
                INT_CELL, ())

        out = _assert_lockstep(build)
        assert out["value"] == "99"

    def test_foreign_counter(self):
        from repro.stdlib.foreign import INT_CELL_LUMP

        def build():
            body = App(counter_value(), (Var("c"),))
            for i in range(3):
                body = let_(f"u{i}", FUnit(), App(bump(), (Var("c"),)),
                            body)
            return let_("c", INT_CELL_LUMP,
                        App(new_counter(), (IntE(10),)), body)

        out = _assert_lockstep(build)
        assert out["value"] == "13"


class TestBudgetVerdictLockstep:
    """Exhaustion and suspension are engine-invariant."""

    @pytest.mark.parametrize("name", sorted(example_entries()))
    def test_exhaustion_at_every_prefix_matches(self, name):
        _, build = example_entries()[name]
        total = _observe(build, "subst")["spent"]["fuel_used"]
        picks = sorted({1, total // 3, total // 2, total - 1})
        for k in (p for p in picks if 0 < p < total):
            outcomes = {}
            for engine in ENGINES:
                machine = FTMachine(budget=Budget(fuel=k), engine=engine)
                with pytest.raises(FuelExhausted):
                    machine.evaluate(build())
                assert machine.suspended
                outcomes[engine] = (machine.budget.fuel_used,
                                    machine.steps)
            assert outcomes["subst"] == outcomes["cek"], (name, k)

    @pytest.mark.parametrize("name", sorted(example_entries()))
    def test_cross_engine_snapshot_resume(self, name):
        """Suspend on one engine, finish on the other: snapshots carry
        plain reified terms, so the stepper is swappable mid-run."""
        _, build = example_entries()[name]
        ref = _observe(build, "subst")
        total = ref["spent"]["fuel_used"]
        if total < 2:
            pytest.skip("example too small to split")
        k = total // 2
        for first, second in (("subst", "cek"), ("cek", "subst")):
            machine = FTMachine(budget=Budget(fuel=k), engine=first)
            with pytest.raises(FuelExhausted):
                machine.evaluate(build())
            wire = machine.snapshot().to_wire()
            revived = FTMachine.restore(MachineSnapshot.from_wire(wire))
            revived.engine = second
            outcome = revived.resume(fuel=total - k)
            assert str(outcome) == ref["value"], (name, first, second)
            assert revived.budget.fuel_used == total - k

    def test_depth_verdict_matches(self):
        from repro.errors import StackDepthExhausted

        expr = IntE(0)
        inc = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
        for _ in range(40):
            expr = App(inc, (expr,))
        for engine in ENGINES:
            machine = FTMachine(budget=Budget(depth=10), engine=engine)
            with pytest.raises(StackDepthExhausted):
                machine.evaluate(expr)


class TestRandomTermsLockstep:
    """Seeded random well-typed F terms agree on both engines."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_term(self, seed):
        expr = random_f_int_expr(seed, depth=4)
        _assert_lockstep(lambda: expr)


class TestPureEvaluators:
    """FEvaluator vs CEKEvaluator outside the FT machine."""

    def _deep(self, n=30):
        inc = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
        expr = IntE(0)
        for _ in range(n):
            expr = App(inc, (expr,))
        return expr

    def test_values_and_fuel_agree(self):
        expr = self._deep()
        ref = FEvaluator(expr)
        value = ref.run()
        cek = CEKEvaluator(expr)
        assert cek.run() == value
        assert cek.budget.fuel_used == ref.budget.fuel_used

    def test_evaluate_dispatches_engines(self):
        expr = self._deep(5)
        assert evaluate(expr) == evaluate(expr, engine="subst")
        assert evaluate(expr, engine="cek") == IntE(5)
        assert cek_evaluate(expr) == IntE(5)

    def test_pending_expr_matches_substitution(self):
        """A fuel-suspended CEK state reifies to the exact term the
        substitution machine is stuck on at the same fuel."""
        expr = self._deep()
        ref = FEvaluator(expr)
        ref.run()
        total = ref.budget.fuel_used
        for k in (1, total // 2, total - 1):
            sub = FEvaluator(expr, fuel=k)
            with pytest.raises(FuelExhausted):
                sub.run()
            cek = CEKEvaluator(expr, fuel=k)
            with pytest.raises(FuelExhausted):
                cek.run()
            assert cek.pending_expr() == sub.pending_expr(), k

    def test_cek_snapshot_roundtrip(self):
        expr = self._deep()
        ref = FEvaluator(expr)
        value = ref.run()
        total = ref.budget.fuel_used
        ev = CEKEvaluator(expr, fuel=total // 2)
        with pytest.raises(FuelExhausted):
            ev.run()
        snap = pickle.loads(pickle.dumps(ev.snapshot()))
        revived = CEKEvaluator.restore(snap)
        assert revived.run(fuel=total - total // 2) == value


@pytest.fixture
def clean_caches():
    clear_subst_caches()
    clear_equality_cache()
    obs.disable()
    obs.reset()
    yield
    clear_subst_caches()
    clear_equality_cache()
    obs.disable()
    obs.reset()


class TestTypeCaches:
    """The interning / memoization layer under both engines."""

    def test_interning_canonicalizes(self, clean_caches):
        a = intern_ty(TRef((TInt(), TUnit())))
        b = intern_ty(TRef((TInt(), TUnit())))
        assert a is b
        from repro.f.syntax import FArrow

        fa = intern_ftype(FArrow((FInt(),), FInt()))
        fb = intern_ftype(FArrow((FInt(),), FInt()))
        assert fa is fb

    def test_subst_cache_hits_and_counters(self, clean_caches):
        obs.enable(record=False)
        s = Subst({(KIND_ALPHA, "a"): TInt()})
        t = TRef((TVar("a"), TUnit()))
        first = subst_ty(t, s)
        second = subst_ty(t, s)
        assert first is second == TRef((TInt(), TUnit()))
        stats = subst_cache_stats()
        assert stats["tal.subst.cache.ty"]["hits"] >= 1
        counters = obs.OBS.metrics.snapshot()["counters"]
        assert counters.get("tal.subst.cache.ty.hit", 0) >= 1
        assert counters.get("tal.subst.cache.ty.miss", 0) >= 1

    def test_instantiation_cache_identity(self, clean_caches):
        ct = CodeType((DeltaBind(KIND_ALPHA, "a"),),
                      RegFileTy.of(r1=TVar("a")), NIL_STACK, QReg("ra"))
        one = instantiate_code_type(ct, (TInt(),))
        two = instantiate_code_type(ct, (TInt(),))
        assert one is two
        assert one.chi.get("r1") == TInt()

    def test_equality_memo_respects_renaming_env(self, clean_caches):
        # the `a is b` fast path must not apply under a pending renaming
        x = TVar("x")
        assert types_equal(x, x)
        assert not types_equal(x, x, {(KIND_ALPHA, "x"): "y"})
        # memoized verdicts are stable
        assert types_equal(TRef((TInt(),)), TRef((TInt(),)))
        assert types_equal(TRef((TInt(),)), TRef((TInt(),)))

    def test_caches_do_not_leak_across_clear(self, clean_caches):
        s = Subst({(KIND_ALPHA, "a"): TInt()})
        subst_ty(TRef((TVar("a"),)), s)
        clear_subst_caches()
        stats = subst_cache_stats()
        assert stats["tal.subst.cache.ty"]["size"] == 0


class TestServeEngineNonSemantic:
    """`engine` selects an implementation, not a computation: it must
    not fragment the content-addressed result cache."""

    def test_cache_key_invariant_under_engine(self):
        from repro.serve.cache import job_cache_key
        from repro.serve.protocol import Job, JobOptions

        keys = {
            job_cache_key(Job(id=f"j-{i}", kind="run", example="fig17",
                              options=JobOptions(engine=eng)))
            for i, eng in enumerate((None, "subst", "cek"))
        }
        assert len(keys) == 1

    def test_executor_results_match_across_engines(self):
        from repro.serve.executor import execute_job
        from repro.serve.protocol import Job, JobOptions

        outs = {}
        for eng in ENGINES:
            result = execute_job(
                Job(id=f"e-{eng}", kind="run", example="fig17",
                    options=JobOptions(engine=eng)))
            assert result.status == "ok", result
            outs[eng] = (result.output.get("value"),
                         result.output.get("steps"))
        assert outs["subst"] == outs["cek"]


class TestReifyPayloadCaptures:
    """Closures capturing two variables that are used only inside a
    boundary's ``import`` payload: reification substitutes the whole
    environment in one pass, and every engine state it reifies matches
    the substitution engine's."""

    @staticmethod
    def build():
        from repro.ft.syntax import Boundary, Import
        from repro.tal.syntax import Component, Halt, NIL_STACK, seq

        payload = BinOp("*", BinOp("+", Var("x"), Var("y")), Var("x"))
        inner = Lam((("z", FInt()),), Boundary(FInt(), Component(seq(
            Import("r1", NIL_STACK, FInt(), BinOp("+", payload, Var("z"))),
            Halt(TInt(), NIL_STACK, "r1")))))
        adder = Lam((("x", FInt()),), Lam((("y", FInt()),), inner))
        closure = App(App(adder, (IntE(3),)), (IntE(4),))
        return App(closure, (IntE(5),))

    def test_lockstep(self):
        assert _assert_lockstep(self.build)["value"] == "26"

    def test_suspended_states_reify_alike(self):
        total = _observe(self.build, "subst")["spent"]["fuel_used"]
        states = []
        for k in range(1, total):
            pending = {}
            for engine in ENGINES:
                machine = FTMachine(budget=Budget(fuel=k), engine=engine)
                with pytest.raises(FuelExhausted):
                    machine.evaluate(self.build())
                state = machine.snapshot().state()
                assert state.pop("engine") == engine
                pending[engine] = {key: str(v) for key, v in state.items()}
            assert pending["subst"] == pending["cek"], k
            states.append(pending["cek"]["state"])
        # a suspension inside the boundary holds the substituted payload
        assert any("(((3 + 4) * 3) + 5)" in state for state in states)
