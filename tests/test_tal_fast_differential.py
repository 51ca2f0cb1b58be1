"""Differential lockstep harness: the fast T tier against the reference
``TalMachine``.

``repro.tal.fast`` erases types, resolves labels, and JIT-fuses hot
blocks -- none of which is allowed to be observable.  Its correctness
claim mirrors the CEK-vs-substitution claim enforced by
``test_engine_differential.py``: identical values, identical fuel/heap
budget verdicts, identical trap messages, identical suspension points --
on every paper example, random well-typed T programs, erased programs,
budget-exhaustion splits, and cross-engine snapshot resume.

Also covered: warm loop-JIT variants (every fuel prefix, instantiation
counters, traps, big ints) and generated counted loops; straight-line
components, whose lowered entry blocks run on a first and a warm run;
fast-tier memos that must not grow with boundary crossings, must die
with the components they serve, and keep a deep recursion's shallow
depths; and the serving layer's treatment of ``tal_engine`` as a
non-semantic option.
"""

import gc
import math
import re
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.errors import FuelExhausted, MachineError
from repro.f.syntax import App, FInt, IntE
from repro.ft.machine import FTMachine
from repro.ft.syntax import Import, Protect
from repro.papers_examples import example_entries
from repro.papers_examples import fig3_call_to_call
from repro.papers_examples.fig17_factorial import (
    build_count_t, build_fact_f, build_fact_t,
)
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import MachineSnapshot
from repro.tal import fast
from repro.tal.erasure import erase_types
from repro.tal.machine import (
    TAL_ENGINES, TalMachine, resolve_tal_engine, run_component,
)
from repro.tal.subst import (
    _BLOCK_MEMO_CAP, clear_subst_caches, subst_cache_stats,
)
from repro.tal.syntax import (
    Aop, Balloc, Bnz, Call, Component, Halt, HCode, Jmp, Ld, Loc, Mv,
    NIL_STACK, QEnd, RegFileTy, RegOp, Salloc, Sld, Sst, St, TInt, WInt,
    WLoc, WUnit, seq,
)
from tests.strategies import random_counted_loop, random_t_program

LOC_COUNTER = re.compile(r"%\d+")


@pytest.fixture(autouse=True)
def clean_caches():
    clear_subst_caches()
    fast.clear_fast_caches()
    obs.disable()
    obs.reset()
    yield
    clear_subst_caches()
    fast.clear_fast_caches()
    obs.disable()
    obs.reset()


def _blocked(comp: Component) -> Component:
    """Move a straight-line component's body into a heap code block, so
    the fast tier enters it by a jump (a heap-less component runs as its
    lowered entry block instead)."""
    loc = Loc("lmain")
    block = HCode((), RegFileTy.of(), NIL_STACK,
                  QEnd(TInt(), NIL_STACK), comp.instrs)
    return Component(seq(Jmp(WLoc(loc))), comp.heap + ((loc, block),))


def _observe_t(comp: Component, tal_engine: str, fuel=None):
    halted, machine = run_component(comp, fuel=fuel, tal_engine=tal_engine)
    return {"word": str(halted.word), "ty": str(halted.ty),
            "spent": machine.budget.spent()}


def _assert_t_lockstep(comp: Component, fuel=None):
    ref = _observe_t(comp, "ref", fuel=fuel)
    fast_out = _observe_t(comp, "fast", fuel=fuel)
    assert ref == fast_out
    return ref


def _observe_ft(build, tal_engine, fuel=None):
    # Budgets are stateful: build a fresh one per machine so the two
    # engines' spends don't accumulate into each other.
    budget = Budget(fuel=fuel) if fuel else None
    machine = FTMachine(tal_engine=tal_engine, budget=budget)
    value = machine.evaluate(build())
    return {"value": str(value), "spent": machine.budget.spent()}


def _assert_ft_lockstep(build, fuel=None):
    ref = _observe_ft(build, "ref", fuel=fuel)
    fast_out = _observe_ft(build, "fast", fuel=fuel)
    assert ref == fast_out
    return ref


def _fast_memo_sizes():
    """Live fast-tier blocks, the memo entries they hold, and the
    module's JIT function table."""
    gc.collect()
    blocks = [o for o in gc.get_objects() if isinstance(o, fast.FastBlock)]
    sites = {id(fb.sites): fb.sites for fb in blocks}
    return {"blocks": len(blocks),
            "envs": sum(len(fb.envs or ()) for fb in blocks),
            "sites": sum(len(memo) for memo in sites.values()),
            "jit": len(fast._JIT_FNS)}


class TestEngineSelection:
    def test_registry(self):
        assert TAL_ENGINES == ("ref", "fast")
        assert resolve_tal_engine(None) == "fast"
        assert resolve_tal_engine("ref") == "ref"

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("FUNTAL_TAL_ENGINE", "fast")
        assert resolve_tal_engine(None) == "fast"
        assert TalMachine().tal_engine == "fast"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_tal_engine("llvm")
        with pytest.raises(ValueError):
            FTMachine(tal_engine="llvm")

    def test_machine_default_is_fast(self):
        assert TalMachine().tal_engine == "fast"
        assert FTMachine().tal_engine == "fast"
        assert FTMachine(tal_engine="ref").tal_engine == "ref"

    def test_env_var_selects_ref(self, monkeypatch):
        monkeypatch.setenv("FUNTAL_TAL_ENGINE", "ref")
        assert resolve_tal_engine(None) == "ref"
        assert FTMachine().tal_engine == "ref"


class TestExamplesLockstep:
    """Every paper example through the FT machine: same value and
    budget spend on both T engines."""

    @pytest.mark.parametrize("name", sorted(example_entries()))
    def test_example(self, name):
        _, build = example_entries()[name]
        _assert_ft_lockstep(build)

    def test_fact_t(self):
        out = _assert_ft_lockstep(lambda: App(build_fact_t(), (IntE(6),)))
        assert out["value"] == "720"

    def test_count_loop(self):
        out = _assert_ft_lockstep(
            lambda: App(build_count_t(), (IntE(400),)),
            fuel=1_000_000)
        assert out["value"] == "400"


class TestRandomProgramsLockstep:
    """Seeded random well-typed T programs agree on word, halt type, and
    fuel -- both as bare components (the lowered entry block) and
    hoisted into heap blocks (entered by a jump)."""

    @pytest.mark.parametrize("seed", range(100))
    def test_random_component(self, seed):
        comp = random_t_program(seed, length=14)
        _assert_t_lockstep(comp)

    @pytest.mark.parametrize("seed", range(100))
    def test_random_component_blocked(self, seed):
        comp = _blocked(random_t_program(seed, length=14))
        _assert_t_lockstep(comp)


class TestErasureLockstep:
    """Type erasure composed with the fast tier: erased and annotated
    programs take the same fast-tier path to the same answer."""

    @pytest.mark.parametrize("seed", range(40))
    def test_erased_random_blocked(self, seed):
        comp = _blocked(random_t_program(seed, length=12))
        plain = _observe_t(comp, "fast")
        erased = _observe_t(erase_types(comp), "fast")
        assert erased["word"] == plain["word"]
        assert erased["spent"] == plain["spent"]

    def test_erased_fig3(self):
        comp = fig3_call_to_call.build()
        for variant in (comp, erase_types(comp)):
            out = _assert_t_lockstep(variant)
            assert out["word"] == "2"


class TestTrapParity:
    """Ill-behaved programs trap with the same error text (modulo the
    ``%N`` freshness counter in location names) on both engines."""

    def _trap(self, comp: Component, tal_engine: str) -> str:
        with pytest.raises(MachineError) as err:
            run_component(comp, tal_engine=tal_engine)
        return LOC_COUNTER.sub("%N", str(err.value))

    TRAPS = {
        "unset-register-aop": seq(
            Aop("add", "r1", "r2", WInt(1)),
            Halt(TInt(), NIL_STACK, "r1")),
        "unset-register-halt": seq(Halt(TInt(), NIL_STACK, "r1")),
        "aop-on-unit": seq(
            Mv("r2", WUnit()),
            Aop("add", "r1", "r2", WInt(1)),
            Halt(TInt(), NIL_STACK, "r1")),
        "bnz-on-unit": seq(
            Mv("r2", WUnit()),
            Bnz("r2", WInt(3)),
            Mv("r1", WInt(0)),
            Halt(TInt(), NIL_STACK, "r1")),
        "jmp-to-int": seq(Mv("r1", WInt(7)), Jmp(RegOp("r1"))),
        "jmp-to-unbound-loc": seq(Jmp(WLoc(Loc("lnowhere")))),
        "ld-from-int": seq(
            Mv("r2", WInt(5)),
            Ld("r1", "r2", 0),
            Halt(TInt(), NIL_STACK, "r1")),
        "ld-out-of-range": seq(
            Salloc(1),
            Balloc("r2", 1),
            Ld("r1", "r2", 4),
            Halt(TInt(), NIL_STACK, "r1")),
        "st-to-immutable": seq(
            Salloc(1),
            Balloc("r2", 1),
            Mv("r3", WInt(1)),
            St("r2", 0, "r3"),
            Mv("r1", WInt(0)),
            Halt(TInt(), NIL_STACK, "r1")),
        "sld-on-empty-stack": seq(
            Sld("r1", 0),
            Halt(TInt(), NIL_STACK, "r1")),
        # FT instructions are not pure T: a TalMachine refuses them.
        "protect-on-pure-t": seq(
            Protect((), "z"),
            Mv("r1", WInt(3)),
            Halt(TInt(), NIL_STACK, "r1")),
        "import-on-pure-t": seq(
            Mv("r1", WInt(1)),
            Import("r1", NIL_STACK, FInt(), IntE(3)),
            Halt(TInt(), NIL_STACK, "r1")),
    }

    @pytest.mark.parametrize("name", sorted(TRAPS))
    def test_trap_message_parity(self, name):
        comp = Component(self.TRAPS[name])
        assert self._trap(comp, "ref") == self._trap(comp, "fast"), name

    @pytest.mark.parametrize("name", sorted(TRAPS))
    def test_trap_message_parity_blocked(self, name):
        comp = _blocked(Component(self.TRAPS[name]))
        assert self._trap(comp, "ref") == self._trap(comp, "fast"), name

    @staticmethod
    def _outcome(comp: Component, tal_engine: str, fuel=None):
        """How a run of ``comp`` ends: its verdict, fuel used, steps and
        residual state."""
        machine = TalMachine(budget=Budget(fuel=fuel), tal_engine=tal_engine)
        try:
            verdict = str(machine.run_component(comp).word)
        except (FuelExhausted, MachineError) as err:
            verdict = f"{type(err).__name__}: {err}"
        residual = str(machine.snapshot_resumable()["state"])
        return (LOC_COUNTER.sub("%N", verdict), machine.budget.fuel_used,
                machine.steps, LOC_COUNTER.sub("%N", residual))

    @pytest.mark.parametrize("blocked", (False, True),
                             ids=("entry", "blocked"))
    @pytest.mark.parametrize("name", sorted(TRAPS))
    def test_every_fuel_prefix_matches_ref(self, name, blocked):
        """At every fuel up to and past the trap, both engines spend the
        same fuel and steps and leave the same residual."""
        comp = Component(self.TRAPS[name])
        if blocked:
            comp = _blocked(comp)
        total = self._outcome(comp, "ref")[1]
        for k in range(1, total + 2):
            assert self._outcome(comp, "fast", k) == \
                self._outcome(comp, "ref", k), (name, k)


class TestBudgetVerdictLockstep:
    """Exhaustion and suspension are engine-invariant: for every fuel
    prefix, both engines stop at the same point and resume to the same
    answer."""

    BUILDS = {
        "fig17-fact-t": lambda: App(build_fact_t(), (IntE(5),)),
        "count-loop": lambda: App(build_count_t(), (IntE(40),)),
    }

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_exhaustion_at_every_prefix_matches(self, name):
        build = self.BUILDS[name]
        ref = _observe_ft(build, "ref")
        total = ref["spent"]["fuel_used"]
        for k in range(1, total):
            outcomes = {}
            for engine in TAL_ENGINES:
                machine = FTMachine(budget=Budget(fuel=k),
                                    tal_engine=engine)
                with pytest.raises(FuelExhausted):
                    machine.evaluate(build())
                assert machine.suspended
                outcomes[engine] = machine.budget.fuel_used
            assert outcomes["ref"] == outcomes["fast"], (name, k)

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_cross_engine_snapshot_resume(self, name):
        """Suspend under one T engine, finish under the other: snapshots
        carry plain residual instruction sequences, so the T tier is
        swappable mid-run (ref checkpoint -> fast resume and back).  A
        ref checkpoint taken at any fuel resumes on fast as a cold state
        and finishes with ref's fuel and step count."""
        build = self.BUILDS[name]
        full = FTMachine(tal_engine="ref")
        value = str(full.evaluate(build()))
        total = full.budget.fuel_used
        sparse = {1, total // 3, total // 2, total - 1}
        for k in range(1, total):
            for first, second in (("ref", "fast"), ("fast", "ref")):
                if first == "fast" and k not in sparse:
                    continue
                machine = FTMachine(budget=Budget(fuel=k),
                                    tal_engine=first)
                with pytest.raises(FuelExhausted):
                    machine.evaluate(build())
                wire = machine.snapshot().to_wire()
                revived = FTMachine.restore(MachineSnapshot.from_wire(wire))
                revived.tal_engine = second
                outcome = revived.resume(fuel=total - k)
                assert str(outcome) == value, (name, k, first)
                assert (revived.budget.fuel_used, revived.steps) == \
                    (total - k, full.steps), (name, k, first)


class TestJitLockstep:
    """With the JIT threshold forced to 1 every eligible block is
    template-JITted immediately; the fused closures must stay in
    lockstep with the reference stepper."""

    def test_jit_promoted_lockstep(self, monkeypatch):
        monkeypatch.setattr(fast, "JIT_THRESHOLD", 1)
        out = _assert_ft_lockstep(
            lambda: App(build_count_t(), (IntE(300),)),
            fuel=1_000_000)
        assert out["value"] == "300"
        _assert_ft_lockstep(lambda: App(build_fact_t(), (IntE(6),)))
        for name in sorted(example_entries()):
            _assert_ft_lockstep(example_entries()[name][1])

    def test_jit_actually_promotes(self, monkeypatch):
        obs.enable(record=False)
        monkeypatch.setattr(fast, "JIT_THRESHOLD", 1)
        _observe_ft(lambda: App(build_count_t(), (IntE(100),)),
                    "fast", fuel=1_000_000)
        counters = obs.OBS.metrics.snapshot()["counters"]
        assert counters.get("tal.fast.jit.promoted", 0) >= 1


def _t_outside(build, n: int) -> Component:
    """The loop component of ``build`` (``build_count_t`` or
    ``build_fact_t``) run T-outside: its entry block is called with ``n``
    on the stack and a return continuation that halts.  No boundary is
    crossed."""
    loop = build().body.fn.comp
    done, end = Loc("ldone"), QEnd(TInt(), NIL_STACK)
    halt = HCode((), RegFileTy.of(r1=TInt()), NIL_STACK, end,
                 seq(Halt(TInt(), NIL_STACK, "r1")))
    return Component(
        seq(Mv("r1", WInt(n)), Salloc(1), Sst(0, "r1"), Mv("ra", WLoc(done)),
            Call(WLoc(loop.heap[0][0]), NIL_STACK, end)),
        loop.heap + ((done, halt),))


def _counted(run) -> dict:
    """The obs counters of ``run()``."""
    obs.enable(record=False)
    obs.reset()
    try:
        run()
        return obs.OBS.metrics.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()


def _warm(comp: Component) -> None:
    """Run ``comp`` on fast until its loop block runs as a loop variant
    (the blocks belong to the component's load template, so every later
    run of ``comp`` starts warm)."""
    for _ in range(3):
        counters = _counted(lambda: run_component(comp, tal_engine="fast"))
        if counters.get("tal.fast.jit.loops"):
            return
    raise AssertionError("the loop was never re-rendered as a loop")


def _self_loop(*prefix, stack: bool = False) -> Component:
    """``r3`` counts down from 30 in a block that then makes ``r3`` a
    unit and jumps back into itself: the loop variant, already running,
    is re-entered with a non-int counter."""
    loop = Loc("lloop")
    block = HCode((), RegFileTy.of(), NIL_STACK, QEnd(TInt(), NIL_STACK),
                  seq(*prefix,
                      Aop("add", "r7", "r7", WInt(1)),
                      Aop("sub", "r3", "r3", WInt(1)),
                      Bnz("r3", WLoc(loop)),
                      Mv("r3", WUnit()),
                      Jmp(WLoc(loop))))
    entry = [Mv("r3", WInt(30)), Mv("r7", WInt(0))]
    if stack:
        entry.append(Salloc(1))
    return Component(seq(*entry, Jmp(WLoc(loop))), ((loop, block),))


class TestLoopJit:
    """A JIT'd block that jumps back into itself runs the whole loop in
    one call (unboxed when its body is int register arithmetic).  Warm
    loops must still suspend, count and trap exactly where ref does."""

    LOOPS = {"count_t": (build_count_t, 40), "fact_t": (build_fact_t, 25)}

    def _warm_loop(self, name) -> Component:
        build, n = self.LOOPS[name]
        comp = _t_outside(build, n)
        _warm(comp)
        return comp

    @pytest.mark.parametrize("name", sorted(LOOPS))
    def test_warm_loop_suspends_at_every_prefix_like_ref(self, name):
        comp = self._warm_loop(name)
        expected, ref = run_component(comp, tal_engine="ref")
        total = ref.budget.fuel_used
        for k in range(1, total):
            stops = {}
            for engine in TAL_ENGINES:
                machine = TalMachine(budget=Budget(fuel=k),
                                     tal_engine=engine)
                with pytest.raises(FuelExhausted):
                    machine.run_component(comp)
                stops[engine] = machine
            assert stops["fast"].steps == stops["ref"].steps == k, k
            wire = stops["fast"].snapshot().to_wire()
            revived = TalMachine.restore(MachineSnapshot.from_wire(wire))
            revived.tal_engine = "ref"
            assert str(revived.resume(fuel=total - k).word) == \
                str(expected.word)
            assert revived.budget.fuel_used == total - k

    @pytest.mark.parametrize("name", sorted(LOOPS))
    def test_warm_loop_counts_like_ref(self, name):
        comp = self._warm_loop(name)
        counted = {}
        for engine in TAL_ENGINES:
            counters = _counted(
                lambda: run_component(comp, tal_engine=engine))
            counted[engine] = (counters["t.subst.instantiate"],
                               counters["t.machine.steps"])
        assert counted["fast"] == counted["ref"]

    def test_loop_variant_is_rendered_once_and_reused(self):
        comp = _t_outside(build_count_t, 40)
        first = _counted(lambda: run_component(comp, tal_engine="fast"))
        assert first["tal.fast.jit.loops"] == 1
        again = _counted(lambda: run_component(comp, tal_engine="fast"))
        assert "tal.fast.jit.loops" not in again
        assert "tal.fast.jit.promoted" not in again

    def test_mul_loop_past_two_to_the_64(self):
        comp = _t_outside(build_fact_t, 30)
        _warm(comp)
        outs = {engine: _observe_t(comp, engine) for engine in TAL_ENGINES}
        assert outs["fast"] == outs["ref"]
        assert int(outs["ref"]["word"]) == math.factorial(30) > 2 ** 64

    @pytest.mark.parametrize("prefix", [(), (Sst(0, "r7"),)],
                             ids=["unboxed", "boxed"])
    def test_non_int_counter_traps_like_ref(self, prefix):
        comp = _self_loop(*prefix, stack=bool(prefix))
        traps, loops = {}, {}
        for engine in TAL_ENGINES:
            machine = TalMachine(tal_engine=engine)

            def run():
                with pytest.raises(MachineError) as err:
                    machine.run_component(comp)
                traps[engine] = (str(err.value), machine.steps,
                                 machine.budget.fuel_used)
            loops[engine] = _counted(run).get("tal.fast.jit.loops")
        assert traps["fast"] == traps["ref"]
        assert traps["ref"][0] == "aop source r3 holds non-int ()"
        assert loops == {"ref": None, "fast": 1}


class TestGeneratedLoops:
    """Random counted loops (``tests/strategies.random_counted_loop``):
    the full run warms the loop JIT and must count block instantiations
    like ref, then a run cut short by fuel must stop at ref's step."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2 ** 32 - 1),
           cut=st.floats(0, 1, exclude_max=True))
    def test_ref_and_fast_agree(self, seed, cut):
        comp = random_counted_loop(seed)
        runs = {}
        for engine in TAL_ENGINES:
            out = []
            counters = _counted(
                lambda: out.extend(run_component(comp, tal_engine=engine)))
            halted, machine = out
            runs[engine] = (str(halted.word), machine.budget.fuel_used,
                            machine.steps, counters["t.subst.instantiate"])
        assert runs["fast"] == runs["ref"]
        k = 1 + int(cut * (runs["ref"][1] - 1))
        stops = {}
        for engine in TAL_ENGINES:
            machine = TalMachine(budget=Budget(fuel=k), tal_engine=engine)
            with pytest.raises(FuelExhausted):
                machine.run_component(comp)
            stops[engine] = (machine.steps, machine.budget.fuel_used)
        assert stops["fast"] == stops["ref"]


class TestCrossingCaches:
    """Nothing a boundary crossing builds is per crossing: once warm,
    further ``fact_t`` runs on fast add no entry to any fast-tier cache."""

    def test_fact_t_runs_leave_cache_sizes_unchanged(self):
        image = App(build_fact_t(), (IntE(6),))

        for _ in range(20):
            FTMachine(tal_engine="fast").evaluate(image)
        warm = _fast_memo_sizes()
        for _ in range(50):
            assert str(FTMachine(tal_engine="fast").evaluate(image)) == "720"
        assert _fast_memo_sizes() == warm


def _fresh_compiled(seeds):
    """Freshly compiled images (and their expected values) of generated
    whole-F programs: new components every call, which the compile
    cache does not keep."""
    from repro.compile.pipeline import clear_compile_cache, compile_term
    from tests.strategies import random_full_f_expr

    clear_compile_cache()  # images other tests compiled are not fresh
    out = []
    for seed in seeds:
        term = random_full_f_expr(seed, depth=3 + seed % 2)
        out.append((compile_term(term).wrapped,
                    str(FTMachine(tal_engine="ref").evaluate(term))))
    clear_compile_cache()
    return out


class TestMemosDieWithTheirCode:
    """Every fast-tier memo hangs off a block, and a block off its code:
    once a component is dropped, nothing of the fast tier keeps it, or
    the blocks built for it, alive."""

    def test_dropped_components_free_their_blocks(self, monkeypatch):
        built = []
        real = fast._build_block

        def recording(*args):
            fb = real(*args)
            built.append(weakref.ref(fb))
            return fb

        monkeypatch.setattr(fast, "_build_block", recording)
        programs = _fresh_compiled(range(12))
        for image, expected in programs:
            machine = FTMachine()          # the default engine
            assert machine.tal_engine == "fast"
            assert str(machine.evaluate(image)) == expected
            assert str(FTMachine().evaluate(image)) == expected
        del programs, image, machine
        gc.collect()
        assert len(built) > 12
        assert [ref for ref in built if ref() is not None] == []

    def test_repeated_passes_leave_memo_sizes_flat(self):
        sizes = []
        for _ in range(4):
            for image, expected in _fresh_compiled(range(12)):
                for _ in range(3):  # lower, specialize, hit
                    assert str(FTMachine().evaluate(image)) == expected
            sizes.append(_fast_memo_sizes())
        assert sizes[1] == sizes[2] == sizes[3]

    def test_deep_recursion_keeps_block_memos_capped(self):
        """A recursion instantiates its callee once per depth; a block's
        omega memo stays within its cap, and the entries a full memo
        drops are counted as evictions."""
        from repro.compile.pipeline import compile_term

        image = App(compile_term(build_fact_f()).wrapped,
                    (IntE(fast._MEMO_CAP + 8),))
        before = fast.fast_cache_stats()["tal.fast.block"]["evictions"]
        expected = str(FTMachine(tal_engine="ref").evaluate(image))
        for _ in range(2):
            assert str(FTMachine().evaluate(image)) == expected
        gc.collect()
        blocks = [o for o in gc.get_objects()
                  if isinstance(o, fast.FastBlock)]
        assert max(len(fb.envs or ()) for fb in blocks) <= fast._MEMO_CAP
        after = fast.fast_cache_stats()["tal.fast.block"]["evictions"]
        assert after > before

    @pytest.mark.parametrize("engine", TAL_ENGINES)
    def test_deep_recursion_hits_at_shallow_depths(self, engine):
        """A full memo keeps its entries and refuses new ones, so a
        second run of a recursion deeper than the cap finds the shallow
        depths it memoized on the first."""
        from repro.compile.pipeline import compile_term

        stats, family, cap = (
            (fast.fast_cache_stats, "tal.fast.block", fast._MEMO_CAP)
            if engine == "fast" else
            (subst_cache_stats, "tal.subst.cache.block", _BLOCK_MEMO_CAP))
        image = App(compile_term(build_fact_f()).wrapped, (IntE(cap + 8),))
        expected = str(FTMachine(tal_engine=engine).evaluate(image))
        before = stats()[family]
        assert str(FTMachine(tal_engine=engine).evaluate(image)) == expected
        after = stats()[family]
        assert after["hits"] - before["hits"] >= cap
        assert after["evictions"] > before["evictions"]


class TestStraightLineEntries:
    """A heap-less (straight-line) component runs on the fast tier from
    its first instruction: its entry sequence is lowered at its first
    fast load and kept on the component.  On a first run, and on a warm
    run that finds the block built, it suspends, resumes and traps
    exactly like ``ref``."""

    SEEDS = range(10)

    @staticmethod
    def _suspended(comp, engine, fuel):
        machine = FTMachine(budget=Budget(fuel=fuel), tal_engine=engine)
        with pytest.raises(FuelExhausted):
            machine.run_component(comp)
        return machine

    @pytest.mark.parametrize("warm", (False, True), ids=("first", "warm"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_exhaustion_at_every_prefix_matches(self, seed, warm):
        warm_comp = random_t_program(seed, length=14)
        total = _observe_t(warm_comp, "ref")["spent"]["fuel_used"]
        run_component(warm_comp, tal_engine="fast")
        for k in range(1, total):
            outcomes = {}
            for engine in TAL_ENGINES:
                comp = (warm_comp if warm
                        else random_t_program(seed, length=14))
                machine = self._suspended(comp, engine, k)
                outcomes[engine] = (machine.budget.fuel_used,
                                    machine.suspended, machine.steps,
                                    machine.snapshot_resumable()["state"])
            assert outcomes["ref"] == outcomes["fast"], (seed, k)

    @pytest.mark.parametrize("warm", (False, True), ids=("first", "warm"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cross_engine_snapshot_resume(self, seed, warm):
        warm_comp = random_t_program(seed, length=14)
        ref = _observe_t(warm_comp, "ref")
        total = ref["spent"]["fuel_used"]
        run_component(warm_comp, tal_engine="fast")
        for k in (1, total // 3, total // 2, total - 1):
            for first, second in (("ref", "fast"), ("fast", "ref")):
                comp = (warm_comp if warm
                        else random_t_program(seed, length=14))
                machine = self._suspended(comp, first, k)
                wire = machine.snapshot().to_wire()
                revived = FTMachine.restore(MachineSnapshot.from_wire(wire))
                revived.tal_engine = second
                halted = revived.resume(fuel=total - k)
                assert str(halted.word) == ref["word"], (seed, k, first)
                assert revived.budget.fuel_used == total - k

    @pytest.mark.parametrize("name", sorted(TestTrapParity.TRAPS))
    def test_trap_message_parity_first_and_warm(self, name):
        trap = TestTrapParity()._trap
        comp = Component(TestTrapParity.TRAPS[name])
        expected = trap(comp, "ref")
        assert [trap(comp, "fast"), trap(comp, "fast")] == [expected] * 2

    def test_warm_run_walks_and_builds_nothing(self, monkeypatch):
        comp = random_t_program(7, length=14)
        expected = _observe_t(comp, "ref")
        builds = [0]
        real_build = fast._build_block

        def build(*args):
            builds[0] += 1
            return real_build(*args)

        monkeypatch.setattr(fast, "_build_block", build)
        assert _observe_t(comp, "fast") == expected
        assert builds[0] == 1
        assert _observe_t(comp, "fast") == expected
        assert builds[0] == 1

    def test_dropped_component_frees_its_entry_block(self):
        comp = random_t_program(7, length=14)
        halted, machine = run_component(comp, tal_engine="fast")
        assert isinstance(comp._identity.fast, fast.FastBlock)
        block = weakref.ref(comp._identity.fast)
        del comp, halted, machine
        gc.collect()
        assert block() is None


class TestPreinstStore:
    """The store tier is gone (a component lowers once per load
    template), but ``fast_cache_stats`` keeps its three entries, which
    benchmark reports read."""

    def test_cache_stats_shape(self):
        stats = fast.fast_cache_stats()
        assert set(stats) == {"tal.fast.site", "tal.fast.block",
                              "tal.fast.preinst"}
        for entry in stats.values():
            assert {"size", "hits", "misses"} <= set(entry)


class TestServeTalEngineNonSemantic:
    """``tal_engine`` selects an implementation, not a computation: it
    must not fragment the content-addressed result cache, and results
    must match across engines."""

    def test_cache_key_invariant_under_tal_engine(self):
        from repro.serve.cache import job_cache_key
        from repro.serve.protocol import Job, JobOptions

        keys = {
            job_cache_key(Job(id=f"j-{i}", kind="run", example="fig17",
                              options=JobOptions(tal_engine=eng)))
            for i, eng in enumerate((None, "ref", "fast"))
        }
        assert len(keys) == 1

    def test_executor_results_match_across_tal_engines(self):
        from repro.serve.executor import execute_job
        from repro.serve.protocol import Job, JobOptions

        outs = {}
        for eng in TAL_ENGINES:
            result = execute_job(
                Job(id=f"te-{eng}", kind="run", example="fig17",
                    options=JobOptions(tal_engine=eng)))
            assert result.status == "ok", result
            outs[eng] = result.output.get("value")
        assert outs["ref"] == outs["fast"]
