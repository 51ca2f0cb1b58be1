"""Regenerate ``typecheck_golden.json``: the T typechecker's verdict and
exact error message on a fixed corpus of programs, and pure F's verdict
and type on another.

The T corpus is every :mod:`repro.adversarial` source plus seeded
single-instruction mutations of compiled programs: an instruction
dropped, two neighbours swapped, a register operand retargeted, or a
stack-slot index shifted by one.  The F corpus (``form`` ``"f"``) is
seeded :func:`tests.strategies.random_full_f_expr` programs plus
single-node mutations of them: a literal made ``()``, an argument
dropped, a projection index bumped, a fold annotation swapped, a
stack-modifying lambda or a boundary put in; its entries record
:func:`repro.f.typecheck.typecheck`'s verdict and the type it gives, not
its message.  Each entry stores the program as surface text, so
``tests/test_typecheck_golden.py`` replays it without depending on
today's compiler.

Run from the repository root::

    PYTHONPATH=src:. python tests/data/make_typecheck_golden.py

Only regenerate on purpose: the file pins the checker's behaviour, and a
typechecker change is expected to reproduce every entry exactly.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import sys
from pathlib import Path

from repro import walk
from repro.adversarial import ADVERSARIES
from repro.compile.pipeline import compile_term
from repro.errors import FunTALError
from repro.f.syntax import (
    App, FArrow, FInt, Fold, FRec, FTupleT, FTVar, FUnit, IntE, Lam, Proj,
    UnitE,
)
from repro.f.typecheck import typecheck as f_typecheck
from repro.ft.syntax import Boundary, StackLam
from repro.ft.typecheck import check_ft_component, check_ft_expr
from repro.papers_examples.fig17_factorial import build_fact_f, build_fact_t
from repro.surface import parse_program
from repro.surface.parser import parse_component
from repro.tal.syntax import (
    Component, HCode, InstrSeq, NIL_STACK, QEnd, RA, GP_REGISTERS, RegOp,
    Sld, Sst, TInt,
)

OUT = Path(__file__).with_name("typecheck_golden.json")
SEED = 21
MUTATIONS = 200
F_SEED = 30
F_PROGRAMS = 40
F_MUTATIONS = 160
REGISTERS = GP_REGISTERS + (RA,)
_FRESH = re.compile(r"%\d+")


def normalize(msg: str) -> str:
    """Number fresh-name suffixes (``z%1234``) by first appearance, so a
    message does not depend on how many names the process minted."""
    seen = {}
    return _FRESH.sub(
        lambda m: "%" + str(seen.setdefault(m.group(0), len(seen) + 1)),
        msg)


def verdict_expr(text: str):
    try:
        check_ft_expr(parse_program(text))
    except FunTALError as err:
        return False, normalize(str(err))
    return True, ""


def verdict_component(text: str):
    try:
        check_ft_component(parse_component(text), q=QEnd(TInt(), NIL_STACK))
    except FunTALError as err:
        return False, normalize(str(err))
    return True, ""


def verdict_f(text: str):
    """Pure F's verdict on ``text`` and the type it gives (``""`` when
    rejected)."""
    try:
        return True, str(f_typecheck(parse_program(text)))
    except FunTALError:
        return False, ""


def _base_terms():
    """Compiled ``int``-typed programs whose top is one boundary."""
    from tests.strategies import random_full_f_expr

    terms = [App(compile_term(build_fact_f()).wrapped, (IntE(5),)),
             App(build_fact_t(), (IntE(5),))]
    for seed in range(40):
        wrapped = compile_term(random_full_f_expr(seed)).wrapped
        if isinstance(wrapped, Boundary):
            terms.append(wrapped)
    return terms


def _boundaries(node):
    """Every boundary in ``node``, found through dataclass fields."""
    if isinstance(node, Boundary):
        yield node
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _boundaries(getattr(node, f.name))
    elif isinstance(node, tuple):
        for item in node:
            yield from _boundaries(item)


def _replace_node(node, old, new):
    if node is old:
        return new
    if isinstance(node, tuple):
        items = tuple(_replace_node(x, old, new) for x in node)
        return node if all(a is b for a, b in zip(items, node)) else items
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        changes = {}
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            repl = _replace_node(value, old, new)
            if repl is not value:
                changes[f.name] = repl
        return dataclasses.replace(node, **changes) if changes else node
    return node


def _mutate_seq(iseq: InstrSeq, rng: random.Random):
    """One single-instruction mutation of ``iseq``, or ``None``."""
    instrs = list(iseq.instrs)
    kind = rng.choice(("drop", "swap", "retarget", "shift"))
    if kind == "drop" and instrs:
        del instrs[rng.randrange(len(instrs))]
        return kind, InstrSeq(tuple(instrs), iseq.term)
    if kind == "swap" and len(instrs) >= 2:
        k = rng.randrange(len(instrs) - 1)
        instrs[k], instrs[k + 1] = instrs[k + 1], instrs[k]
        return kind, InstrSeq(tuple(instrs), iseq.term)
    if kind == "retarget":
        nodes = instrs + [iseq.term]
        sites = [(k, f.name) for k, node in enumerate(nodes)
                 for f in dataclasses.fields(node)
                 if f.name in ("rd", "rs", "r", "rr")
                 or isinstance(getattr(node, f.name), RegOp)]
        if not sites:
            return None
        k, name = rng.choice(sites)
        old = getattr(nodes[k], name)
        cur = old.reg if isinstance(old, RegOp) else old
        reg = rng.choice([r for r in REGISTERS if r != cur])
        nodes[k] = dataclasses.replace(
            nodes[k], **{name: RegOp(reg) if isinstance(old, RegOp)
                         else reg})
        return kind, InstrSeq(tuple(nodes[:-1]), nodes[-1])
    if kind == "shift":
        sites = [k for k, i in enumerate(instrs) if isinstance(i, (Sld, Sst))]
        if not sites:
            return None
        k = rng.choice(sites)
        delta = rng.choice((-1, 1)) if instrs[k].index else 1
        instrs[k] = dataclasses.replace(instrs[k],
                                        index=instrs[k].index + delta)
        return kind, InstrSeq(tuple(instrs), iseq.term)
    return None


def _mutant(term, rng: random.Random):
    boundary = rng.choice(list(_boundaries(term)))
    comp = boundary.comp
    seqs = [comp.instrs] + [h.instrs for _, h in comp.heap
                            if isinstance(h, HCode)]
    target = rng.choice(seqs)
    mutated = _mutate_seq(target, rng)
    if mutated is None:
        return None
    kind, new_seq = mutated
    if target is comp.instrs:
        new_comp = Component(new_seq, comp.heap)
    else:
        new_comp = Component(comp.instrs, tuple(
            (loc, dataclasses.replace(h, instrs=new_seq)
             if isinstance(h, HCode) and h.instrs is target else h)
            for loc, h in comp.heap))
    return kind, _replace_node(term, comp, new_comp)


#: What a fold annotation is swapped for: other mu types, and one that is
#: not a mu type.
_FOLD_ANNS = (FRec("a", FUnit()), FRec("a", FTupleT((FInt(), FInt()))),
              FRec("a", FArrow((FTVar("a"),), FInt())), FInt())


def _f_sites(term, cls):
    return [n for n in walk.preorder(term) if type(n) is cls]


def _f_mutant(term, rng: random.Random):
    """One single-node mutation of the F term ``term``, or ``None``."""
    kind = rng.choice(("unit", "drop-arg", "proj", "fold", "stacklam",
                       "boundary"))
    cls = {"unit": IntE, "boundary": IntE, "drop-arg": App, "proj": Proj,
           "fold": Fold, "stacklam": Lam}[kind]
    sites = _f_sites(term, cls)
    if kind == "drop-arg":
        sites = [n for n in sites if n.args]
    if not sites:
        return None
    old = rng.choice(sites)
    if kind == "unit":
        new = UnitE()
    elif kind == "boundary":
        new = Boundary(FInt(), parse_component(
            f"(mv r1, {old.value}; halt int, nil {{r1}}, .)"))
    elif kind == "drop-arg":
        k = rng.randrange(len(old.args))
        new = App(old.fn, old.args[:k] + old.args[k + 1:])
    elif kind == "proj":
        new = Proj(old.index + 1, old.body)
    elif kind == "fold":
        new = Fold(rng.choice([t for t in _FOLD_ANNS if t != old.ann]),
                   old.body)
    else:
        phi = rng.choice(((), (TInt(),)))
        new = StackLam(old.params, old.body, phi, phi)
    return kind, _replace_node(term, old, new)


def build_f_entries():
    from tests.strategies import random_full_f_expr

    def entry(name, term):
        text = str(term)
        try:
            if parse_program(text) != term:
                return None
        except FunTALError:
            return None
        ok, ty = verdict_f(text)
        return {"name": name, "form": "f", "text": text, "ok": ok,
                "type": ty}

    entries, bases = [], []
    for seed in range(F_PROGRAMS):
        term = random_full_f_expr(seed)
        made = entry(f"f/program/{seed:02d}", term)
        if made is not None:
            entries.append(made)
            bases.append((seed, term))
    rng = random.Random(F_SEED)
    count = 0
    while count < F_MUTATIONS:
        seed, base = rng.choice(bases)
        mutated = _f_mutant(base, rng)
        if mutated is None:
            continue
        kind, term = mutated
        made = entry(f"f/mutant/{count:03d}/{kind}/program{seed:02d}", term)
        if made is None:
            continue
        entries.append(made)
        count += 1
    return entries


def build_entries():
    entries = []
    for adv in ADVERSARIES:
        ok, err = verdict_component(adv.source)
        entries.append({"name": f"adversarial/{adv.name}",
                        "form": "component", "text": adv.source,
                        "ok": ok, "error": err})
    terms = _base_terms()
    rng = random.Random(SEED)
    count = 0
    while count < MUTATIONS:
        base = rng.randrange(len(terms))
        made = _mutant(terms[base], rng)
        if made is None:
            continue
        kind, term = made
        text = str(term)
        try:
            if parse_program(text) != term:
                continue
        except FunTALError:
            continue
        ok, err = verdict_expr(text)
        entries.append({"name": f"mutant/{count:03d}/{kind}/base{base}",
                        "form": "expr", "text": text,
                        "ok": ok, "error": err})
        count += 1
    return entries + build_f_entries()


def main() -> int:
    entries = build_entries()
    OUT.write_text(json.dumps(entries, indent=1) + "\n")
    rejected = sum(not e["ok"] for e in entries)
    print(f"wrote {len(entries)} entries ({rejected} rejected) to {OUT}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
