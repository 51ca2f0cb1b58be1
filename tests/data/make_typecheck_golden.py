"""Regenerate ``typecheck_golden.json``: the T typechecker's verdict and
exact error message on a fixed corpus of programs.

The corpus is every :mod:`repro.adversarial` source plus seeded
single-instruction mutations of compiled programs: an instruction
dropped, two neighbours swapped, a register operand retargeted, or a
stack-slot index shifted by one.  Each entry stores the program as
surface text, so ``tests/test_typecheck_golden.py`` replays it without
depending on today's compiler.

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

from repro.adversarial import ADVERSARIES
from repro.compile.pipeline import compile_term
from repro.errors import FunTALError
from repro.ft.syntax import Boundary
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


def _base_terms():
    """Compiled ``int``-typed programs whose top is one boundary."""
    from tests.strategies import random_full_f_expr

    from repro.f.syntax import App, IntE

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
    return entries


def main() -> int:
    entries = build_entries()
    OUT.write_text(json.dumps(entries, indent=1) + "\n")
    rejected = sum(not e["ok"] for e in entries)
    print(f"wrote {len(entries)} entries ({rejected} rejected) to {OUT}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
