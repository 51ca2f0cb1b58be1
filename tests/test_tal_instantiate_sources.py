"""Jump-time instantiation shares its memo across loads and runs.

Loading a component renames its blocks under fresh labels (paper Fig 8).
Freshness only matters within one memory, so the machine relocates a
component once per set of labels and keeps the result on the component
(:class:`repro.tal.machine.LoadTemplate`): every load into a memory that
binds none of the template's labels binds the very same renamed blocks,
and the instantiation memo, keyed on block identity, hits across runs.
Types never mention locations, so renaming and instantiation commute;
these tests pin that down and check that nothing observable changes:
values, fuel, steps, trace events, snapshots.
"""

import re
from dataclasses import fields, is_dataclass

import pytest

from repro.compile.pipeline import compile_term
from repro.errors import FuelExhausted
from repro.f.syntax import App, BinOp, FInt, IntE, Lam, Var
from repro.ft.machine import FTMachine
from repro.papers_examples import resolve_example
from repro.papers_examples.fig11_jit import build_jit, build_source
from repro.papers_examples.fig17_factorial import build_fact_f
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import MachineSnapshot
from repro.stdlib.prelude import compose, twice
import repro.tal.machine as tal_machine
from repro.tal.machine import rename_locs, TalMachine
from repro.tal.subst import (
    clear_subst_caches, instantiate_code_block, subst_cache_stats,
)
from repro.tal.syntax import (
    Component, fresh_loc, HCode, HTuple, KIND_ALPHA, KIND_ZETA, NIL_STACK, QEnd,
    QEps, StackTy, TInt, TVar,
)
from tests.strategies import random_full_f_expr


def combinator():
    """``twice (twice (compose inc dbl)) 1`` -- closures all the way down."""
    inc = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
    dbl = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(2)))
    step = compose(inc, dbl, FInt(), FInt(), FInt())
    return App(twice(twice(step, FInt()), FInt()), (IntE(1),))


def _fact_f(n):
    return App(compile_term(build_fact_f()).wrapped, (IntE(n),))


#: name -> zero-argument builder of the program to run
PROGRAMS = {
    "fig11": build_jit,
    "fig17": lambda: resolve_example("fig17")[1](),
    "combinator": lambda: compile_term(combinator()).wrapped,
    **{f"fact_f {n}": (lambda n=n: _fact_f(n)) for n in (1, 2, 3)},
}


def _normalize(text: str) -> str:
    """Number fresh labels and binder names (``stem%N``) by first
    appearance, so runs minting different counters compare equal."""
    seen = {}
    return re.sub(r"%\d+",
                  lambda m: "%" + str(seen.setdefault(m.group(), len(seen))),
                  text)


def _block_counts():
    stats = subst_cache_stats()["tal.subst.cache.block"]
    return stats["hits"], stats["misses"]


def _observe(term, machine: FTMachine):
    value = machine.evaluate(term)
    return (str(value), machine.budget.fuel_used, machine.steps,
            [_normalize(str(ev)) for ev in machine.trace])


# ---------------------------------------------------------------------------
# The memo hits across loads
# ---------------------------------------------------------------------------

class TestSourceMemo:
    def test_second_evaluate_never_misses(self):
        image = compile_term(combinator()).wrapped
        FTMachine(tal_engine="ref").evaluate(image)
        hits, misses = _block_counts()
        assert str(FTMachine(tal_engine="ref").evaluate(image)) == "31"
        hits2, misses2 = _block_counts()
        assert misses2 - misses == 0
        assert hits2 - hits == 30

    def test_loaded_labels_record_their_source(self):
        """Every label a load binds holds its template's renamed cell
        itself, and that cell is the source cell under the template's
        renaming."""
        image = compile_term(combinator()).wrapped
        machine = FTMachine()
        machine.evaluate(image)
        loaded = [c for c in _components(image, []) if c.heap]
        assert loaded
        for comp in loaded:
            tpl = _bound_template(comp, machine)
            source = dict(comp.heap)
            assert set(tpl.mapping) == set(source)
            for loc, cell in tpl.cells.items():
                assert machine.memory.lookup(loc) is cell
            cells = {loc: cell.value for loc, cell in tpl.cells.items()}
            for src_loc, loc in tpl.mapping.items():
                assert str(rename_locs(source[src_loc], tpl.mapping)) \
                    == str(cells[loc])

    def test_restored_machine_has_no_records(self):
        """Templates live on the component, not in the checkpoint: the
        revived machine has no fast-tier records, and a load into its
        revived heap, which already binds the template's labels, gets
        other ones."""
        image = compile_term(combinator()).wrapped
        comp = next(c for c in _components(image, []) if c.heap)
        machine = FTMachine(budget=Budget(fuel=40))
        with pytest.raises(FuelExhausted):
            machine.evaluate(image)
        tpl = _bound_template(comp, machine)
        revived = FTMachine.restore(machine.snapshot())
        assert revived._fast_blocks == {} and revived._fast_entries == {}
        for loc, cell in tpl.cells.items():
            assert revived.memory.lookup(loc).value is not cell.value
        bound = set(revived.memory.heap)
        entry = revived.load_component(comp)
        assert entry is not tpl.instrs
        assert comp._template is tpl
        new = set(revived.memory.heap) - bound
        assert len(new) == len(comp.heap)
        assert new.isdisjoint(tpl.cells)


def _bound_template(comp, machine):
    """The template of ``comp``, whose cells ``machine``'s memory binds."""
    heap = machine.memory.heap
    tpl = comp._template
    assert all(heap[loc] is cell for loc, cell in tpl.cells.items())
    return tpl


# ---------------------------------------------------------------------------
# Renaming and instantiation commute
# ---------------------------------------------------------------------------

def _components(x, out):
    """Every T component reachable inside an FT term (boundaries, and the
    F payloads of imports inside their blocks)."""
    if isinstance(x, Component):
        out.append(x)
    if isinstance(x, tuple):
        for y in x:
            _components(y, out)
    elif is_dataclass(x):
        for f in fields(x):
            _components(getattr(x, f.name), out)
    return out


def _omega_sets(delta):
    """Two full instantiations of ``delta``: a closed one, and one whose
    free variables reuse the block's own binder names (forcing the
    substitution to freshen inner binders)."""
    closed, capturing = [], []
    for b in delta:
        if b.kind == KIND_ALPHA:
            closed.append(TInt())
            capturing.append(TVar(b.name))
        elif b.kind == KIND_ZETA:
            closed.append(NIL_STACK)
            capturing.append(StackTy((TInt(),), b.name))
        else:
            closed.append(QEnd(TInt(), NIL_STACK))
            capturing.append(QEps(b.name))
    return tuple(closed), tuple(capturing)


def _images():
    yield "fig11", build_jit()
    yield "fig17", resolve_example("fig17")[1]()
    for name, source in (("fig11 source", build_source()),
                         ("fact_f", build_fact_f()),
                         ("combinator", combinator())):
        yield name, compile_term(source).wrapped
    for seed in range(20):
        yield (f"random {seed}",
               compile_term(random_full_f_expr(seed)).wrapped)


def _assert_commutes(comp: Component) -> int:
    mapping = {loc: fresh_loc(loc.name) for loc, _ in comp.heap}
    checked = 0
    for _, h in comp.heap:
        if not isinstance(h, HCode):
            continue
        for omegas in _omega_sets(h.delta):
            clear_subst_caches()
            inst_then_rename = rename_locs(
                instantiate_code_block(h, omegas), mapping)
            clear_subst_caches()
            rename_then_inst = instantiate_code_block(
                rename_locs(h, mapping), omegas)
            assert (_normalize(str(inst_then_rename))
                    == _normalize(str(rename_then_inst))), h
            checked += 1
    return checked


class TestCommutation:
    @pytest.mark.parametrize(
        "name,image", [pytest.param(n, i, id=n) for n, i in _images()])
    def test_instantiate_then_rename(self, name, image):
        checked = sum(_assert_commutes(c) for c in _components(image, []))
        if not name.startswith("random"):
            assert checked > 0, name

    def test_loaded_block_memo_is_per_instantiation(self):
        """One template block jumped to at two instantiations gets two
        results, each the direct instantiation of the renamed block, and
        a later load of the template reuses both."""
        comp = _components(compile_term(build_fact_f()).wrapped, [])[0]
        object.__setattr__(comp, "_template", None)
        TalMachine().load_component(comp)
        tpl = comp._template
        loaded = [tpl.cells[tpl.mapping[loc]].value for loc, h in comp.heap
                  if isinstance(h, HCode) and h.delta]
        assert loaded
        clear_subst_caches()
        first = {}
        for _ in range(2):  # cold, then from the memo
            for h in loaded:
                for omegas in _omega_sets(h.delta):
                    got = instantiate_code_block(h, omegas)
                    first.setdefault((id(h), omegas), got)
                    assert got is first[(id(h), omegas)]
        TalMachine().load_component(comp)
        assert comp._template is tpl
        for h in loaded:
            for omegas in _omega_sets(h.delta):
                want = rename_locs(
                    instantiate_code_block(
                        dict(comp.heap)[_source_label(tpl, h)], omegas),
                    tpl.mapping)
                got = instantiate_code_block(h, omegas)
                assert got is first[(id(h), omegas)]
                assert _normalize(str(got)) == _normalize(str(want))


def _source_label(tpl, block):
    """The source label of one of ``tpl``'s renamed cells."""
    back = {new: old for old, new in tpl.mapping.items()}
    return next(back[loc] for loc, cell in tpl.cells.items()
                if cell.value is block)


# ---------------------------------------------------------------------------
# Nothing observable changes
# ---------------------------------------------------------------------------

def _memo_free(monkeypatch):
    """Run the literal Fig 8 rule: every load renames the component
    afresh (no template is used or kept, even one an earlier run left on
    the component) and every jump instantiates the renamed heap block
    from scratch (empty memos).  Returns the list of templates the loads
    made, one per load of a component with a heap."""
    enter_block = TalMachine.enter_block
    minted = []

    def uncached(self, loc, omegas, extra=()):
        clear_subst_caches()
        return enter_block(self, loc, omegas, extra)

    def fresh(comp, heap):
        minted.append(tal_machine.LoadTemplate(comp))
        return minted[-1]

    monkeypatch.setattr(tal_machine, "load_template", fresh)
    monkeypatch.setattr(TalMachine, "enter_block", uncached)
    return minted


class TestObservablesUnchanged:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_same_run_as_memo_free(self, name, monkeypatch):
        term = PROGRAMS[name]()
        loaded = [c for c in _components(term, []) if c.heap]
        kept = {id(c): getattr(c, "_template", None) for c in loaded}
        with monkeypatch.context() as patch:
            minted = _memo_free(patch)
            expected = _observe(term, FTMachine(trace=True))
        # the oracle relocated every load afresh and cached nothing
        assert len(minted) >= len(loaded) > 0, name
        assert {id(c): getattr(c, "_template", None) for c in loaded} == kept
        # twice: the second run takes the cross-load hit path throughout
        for _ in range(2):
            got = _observe(term, FTMachine(trace=True))
            assert got == expected, name
        assert all(c._template is not None for c in loaded), name

    def test_snapshot_across_loads_resumes_identically(self):
        term = compile_term(combinator()).wrapped
        loaded = [c for c in _components(term, []) if c.heap]
        machine = FTMachine()
        value = str(machine.evaluate(term))
        total = machine.budget.fuel_used
        for k in (total // 3, total // 2, total - 1):
            machine = FTMachine(budget=Budget(fuel=k))
            with pytest.raises(FuelExhausted):
                machine.evaluate(term)
            assert all(c._template is not None for c in loaded)
            wire = machine.snapshot().to_wire()
            # the templates are not part of the checkpoint
            for c in loaded:
                object.__setattr__(c, "_template", None)
            assert machine.snapshot().to_wire() == wire
            revived = FTMachine.restore(MachineSnapshot.from_wire(wire))
            assert str(revived.resume(fuel=total - k)) == value
            assert revived.budget.fuel_used == total - k


# ---------------------------------------------------------------------------
# Sharing-preserving renaming
# ---------------------------------------------------------------------------

class TestSharingRename:
    def test_empty_mapping_is_identity(self):
        image = compile_term(combinator()).wrapped
        for comp in _components(image, []):
            assert rename_locs(comp.instrs, {}) is comp.instrs
            for _, h in comp.heap:
                assert rename_locs(h, {}) is h

    def test_unrelated_mapping_is_identity(self):
        comp = _components(compile_term(build_fact_f()).wrapped, [])[0]
        mapping = {fresh_loc("other"): fresh_loc("other")}
        for _, h in comp.heap:
            assert rename_locs(h, mapping) is h

    def test_untouched_children_are_shared(self):
        comp = _components(compile_term(build_fact_f()).wrapped, [])[0]
        mapping = {loc: fresh_loc(loc.name) for loc, _ in comp.heap}
        for _, h in comp.heap:
            renamed = rename_locs(h, mapping)
            if isinstance(h, HTuple):      # a static closure pair
                children = zip(h.words, renamed.words)
            else:
                children = zip(h.instrs.instrs, renamed.instrs.instrs)
            for old, new in children:
                if str(old) == str(new):
                    assert old is new
