"""A component is relocated once: loads bind a cached renamed image.

Fig 8 merges a component's heap fragment into the global heap under
fresh labels on every load.  Freshness only matters within one memory,
so the machine keeps the first relocation (a
:class:`~repro.tal.machine.LoadTemplate`) on the component and binds it
again in every memory that does not bind its labels yet.  These tests
check that warm loads do no renaming or lowering, that freshness still
holds within a memory, that budgets and snapshots see every load, that
the memo is invisible to equality, hashing, pickling and digests, and
that cold and warm runs agree on both T engines.
"""

import pickle
import sys
import threading
from dataclasses import fields, is_dataclass

import pytest

import repro.tal.fast as fast
import repro.tal.machine as tal_machine
from repro.compile.pipeline import compile_term
from repro.errors import FuelExhausted, HeapExhausted
from repro.f.syntax import App, IntE
from repro.ft.machine import FTMachine
from repro.link.build import component_digest
from repro.link.fingerprint import stable_fingerprint
from repro import obs
from repro.papers_examples import fig3_call_to_call
from repro.papers_examples.fig17_factorial import build_count_t, build_fact_f
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import MachineSnapshot
from repro.tal.heap import Memory
from repro.tal.machine import LoadTemplate, TalMachine
from repro.tal.syntax import Component
from tests.strategies import random_full_f_expr

ENGINES = ("ref", "fast")


def _components(x, out):
    """Every T component reachable inside an FT term."""
    if isinstance(x, Component):
        out.append(x)
    if isinstance(x, tuple):
        for y in x:
            _components(y, out)
    elif is_dataclass(x):
        for f in fields(x):
            _components(getattr(x, f.name), out)
    return out


def _forget_templates(term) -> None:
    for comp in _components(term, []):
        object.__setattr__(comp, "_template", None)


def _labels(tpl):
    return {loc for loc, _ in tpl.cells}


def _fact_f(n):
    return compile_term(App(build_fact_f(), (IntE(n),))).wrapped


def _count_calls(monkeypatch, module, name):
    calls = [0]
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestWarmLoads:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_second_evaluate_renames_and_lowers_nothing(
            self, engine, monkeypatch):
        image = _fact_f(4)
        _forget_templates(image)
        first = FTMachine(tal_engine=engine)
        value = str(first.evaluate(image))
        renames = _count_calls(monkeypatch, tal_machine, "rename_locs")
        entries = _count_calls(monkeypatch, fast, "_entry_block")
        builds = _count_calls(monkeypatch, fast, "_build_block")
        for _ in range(2):  # second and third run
            builds[0] = 0
            machine = FTMachine(tal_engine=engine)
            assert str(machine.evaluate(image)) == value == "24"
            assert machine.budget.fuel_used == first.budget.fuel_used
            assert renames[0] == 0
            assert entries[0] == 0
        # The second run specializes each (block, omegas) pair it enters
        # a second time -- now across runs, since the blocks are shared
        # -- and a third run finds every specialization built.
        assert builds[0] == 0

    def test_counters_tell_hits_from_misses(self):
        image = _fact_f(2)
        _forget_templates(image)
        obs.enable(record=False)
        obs.reset()
        try:
            FTMachine().evaluate(image)
            FTMachine().evaluate(image)
            counters = obs.OBS.metrics.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        loads = sum(1 for c in _components(image, []) if c.heap)
        assert counters["t.machine.load.template_miss"] == loads
        assert counters["t.machine.load.template_hit"] == loads


    def test_warm_jit_loop_suspends_like_ref(self):
        """The shared blocks of a warm image are already JIT-promoted
        when a run starts; a fuel trip anywhere in the loop still stops
        where ref stops and resumes to the same answer."""
        image = App(build_count_t(), (IntE(40),))
        FTMachine(tal_engine="fast").evaluate(image)   # promote the loop
        counted = {}
        for engine in ENGINES:
            obs.enable(record=False)
            obs.reset()
            try:
                FTMachine(tal_engine=engine).evaluate(image)
                counters = obs.OBS.metrics.snapshot()["counters"]
            finally:
                obs.disable()
                obs.reset()
            counted[engine] = (counters["t.subst.instantiate"],
                               counters["t.machine.steps"])
        assert counted["fast"] == counted["ref"]
        ref = FTMachine(tal_engine="ref")
        value = str(ref.evaluate(image))
        total = ref.budget.fuel_used
        for k in range(1, total, 7):
            suspended = {}
            for engine in ENGINES:
                machine = FTMachine(budget=Budget(fuel=k),
                                    tal_engine=engine)
                with pytest.raises(FuelExhausted):
                    machine.evaluate(image)
                suspended[engine] = machine
            assert suspended["fast"].steps == suspended["ref"].steps
            wire = suspended["fast"].snapshot().to_wire()
            revived = FTMachine.restore(MachineSnapshot.from_wire(wire))
            revived.tal_engine = "ref"
            assert str(revived.resume(fuel=total - k)) == value
            assert revived.budget.fuel_used == total - k


class TestFreshnessWithinAMemory:
    def test_repeated_loads_stay_disjoint(self):
        comp = fig3_call_to_call.build()
        machine = TalMachine()
        per_load = len(comp.heap)
        label_sets, entries = [], []
        for _ in range(3):
            before = set(machine.memory.heap)
            entries.append(machine.load_component(comp))
            label_sets.append(set(machine.memory.heap) - before)
        assert [len(labels) for labels in label_sets] == [per_load] * 3
        seen = set()
        for labels in label_sets:
            assert seen.isdisjoint(labels)
            seen |= labels
        assert len({id(e) for e in entries}) == len(entries)
        # only the first load is kept; the other two renamed fresh
        tpl = comp._template
        assert entries[0] is tpl.instrs and _labels(tpl) == label_sets[0]
        # a fresh memory reuses it
        other = TalMachine()
        assert other.load_component(comp) is tpl.instrs
        assert comp._template is tpl

    @pytest.mark.parametrize("engine", ENGINES)
    def test_restored_heap_that_binds_a_template_loads_other_labels(
            self, engine):
        comp = fig3_call_to_call.build()
        fresh, _ = tal_machine.run_component(comp, tal_engine=engine)
        clean = TalMachine(tal_engine=engine)
        expected = clean.run_component(comp)
        fuel = clean.budget.fuel_used
        machine = TalMachine(budget=Budget(fuel=fuel // 2),
                             tal_engine=engine)
        with pytest.raises(FuelExhausted):
            machine.run_component(comp)
        wire = machine.snapshot().to_wire()
        revived = TalMachine.restore(MachineSnapshot.from_wire(wire))
        tpl = comp._template
        assert _labels(tpl) <= set(revived.memory.heap)
        assert revived.resume(fuel=fuel).word == expected.word
        bound = set(revived.memory.heap)
        halted = revived.run_component(comp, fuel=fuel)
        assert halted.word == expected.word == fresh.word
        assert revived.budget.fuel_used == fuel
        used = set(revived.memory.heap) - bound
        assert len(used) == len(comp.heap)
        assert used.isdisjoint(_labels(tpl))
        assert comp._template is tpl


class TestBudgets:
    @staticmethod
    def _loads_until_exhausted(comp, ceiling):
        machine = TalMachine(budget=Budget(heap=ceiling))
        for n in range(1, 100):
            try:
                machine.load_component(comp)
            except HeapExhausted:
                return n, machine.budget.heap_used
        raise AssertionError("the heap ceiling never tripped")

    def test_heap_ceiling_trips_at_the_same_load(self, monkeypatch):
        comp = fig3_call_to_call.build()
        cells = sum(Memory._cells(h) for _, h in comp.heap)
        ceiling = 3 * cells + cells // 2
        with monkeypatch.context() as patch:
            patch.setattr(tal_machine, "load_template",
                          lambda comp, heap: LoadTemplate(comp))
            literal = self._loads_until_exhausted(comp, ceiling)
        assert literal[0] == 4
        cold = self._loads_until_exhausted(comp, ceiling)
        warm = self._loads_until_exhausted(comp, ceiling)
        assert cold == warm == literal
        assert comp._template is not None


class TestMemoIsInvisible:
    def test_equality_hash_pickle_and_digests(self):
        image = _fact_f(3)
        _forget_templates(image)
        comp = next(c for c in _components(image, []) if c.heap)
        twin = pickle.loads(pickle.dumps(comp))
        before = (pickle.dumps(comp), stable_fingerprint(comp),
                  component_digest(image, ()), hash(comp))
        FTMachine().evaluate(image)
        FTMachine(tal_engine="fast").evaluate(image)
        assert comp._template.fast is not None
        assert not hasattr(twin, "_template")
        assert comp == twin and hash(comp) == hash(twin)
        assert before == (pickle.dumps(comp), stable_fingerprint(comp),
                          component_digest(image, ()), hash(comp))
        assert not hasattr(pickle.loads(pickle.dumps(comp)), "_template")

    def test_boundary_wrappers_are_not_walked(self, monkeypatch):
        renames = _count_calls(monkeypatch, tal_machine, "rename_locs")
        comp = Component(fig3_call_to_call.build().instrs, ())
        entry = TalMachine().load_component(comp)
        assert entry is comp.instrs
        assert renames[0] == 0
        assert not hasattr(comp, "_template")


class TestColdAndWarmAgree:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_programs(self, seed):
        image = compile_term(random_full_f_expr(seed)).wrapped
        runs = []
        for engine in ENGINES:
            _forget_templates(image)
            for _ in ("cold", "warm"):
                machine = FTMachine(tal_engine=engine)
                value = machine.evaluate(image)
                runs.append((str(value), machine.budget.fuel_used,
                             machine.steps))
        assert len(set(runs)) == 1, runs


class TestSharedAcrossThreads:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_concurrent_runs_share_templates(self, engine):
        """Machines in several threads load one image at once: every run
        gets the right answer and fuel (a race for the empty slot only
        costs a second relocation)."""
        image = _fact_f(3)
        _forget_templates(image)
        expected = FTMachine(tal_engine=engine)
        value = str(expected.evaluate(image))
        results, errors = [], []

        def worker():
            try:
                for _ in range(15):
                    machine = FTMachine(tal_engine=engine)
                    results.append((str(machine.evaluate(image)),
                                    machine.budget.fuel_used))
            except Exception as err:  # reported below
                errors.append(err)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert results == [(value, expected.budget.fuel_used)] * 90
        for comp in _components(image, []):
            if comp.heap:
                assert isinstance(comp._template, LoadTemplate)
