"""Seeded benchmark inputs: generated F and T programs as surface text.

The F generator draws closed, well-typed, non-recursive ``int`` programs
from the whole of F (escaping closures, multi-argument and higher-order
lambdas, tuples, ``unit``, iso-recursive ``fold``/``unfold``).  The T
generator is a typed random walk over straight-line instructions that
ends in ``halt int``.  Both follow the algorithms of the test suite's
program strategies, kept here so that a change to the tests cannot change
what the benchmark measures.

Every program reaches the system under test as surface text.  A program
whose printed form does not parse back to the same tree is skipped and
counted (:attr:`Draw.skipped`), so a parser fix shows up as a change in
inputs rather than as noise.

Selection is *stratified* (:func:`stratified`): a seeded pool of
candidates is sorted by text length and one program is taken from each
of ``k`` equal strata, so two seeds give different programs with nearly
the same distribution of size and of reference-machine steps.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.errors import FunTALError
from repro.f.syntax import (
    App, BinOp, FArrow, FInt, Fold, FRec, FTupleT, FUnit, If0, IntE, Lam,
    Proj, TupleE, Unfold, UnitE, Var,
)
from repro.surface import parse_program
from repro.tal.syntax import (
    Aop, AOP_NAMES, Balloc, Component, GP_REGISTERS, Halt, Ld, Mv,
    NIL_STACK, Ralloc, RegOp, Salloc, seq, Sfree, Sld, Sst, St, TInt,
    WInt, WUnit,
)

_INT = FInt()
_UNIT = FUnit()
_PAIR = FTupleT((_INT, _INT))
_ARROW1 = FArrow((_INT,), _INT)
_ARROW2 = FArrow((_INT, _INT), _INT)
_HIGHER = FArrow((_ARROW1,), _INT)
_MU_INT = FRec("a", _INT)


def f_program(seed: int, depth: int = 3):
    """A closed well-typed F expression of type ``int``."""
    rng = random.Random(seed)
    counter = [0]

    def fresh(base):
        counter[0] += 1
        return f"{base}{counter[0]}"

    def gen(ty, d, env):
        have = [x for x, t in env if t == ty]
        if ty == _INT:
            return gen_int(d, env, have)
        if ty == _UNIT:
            if have and rng.random() < 0.5:
                return Var(rng.choice(have))
            return UnitE()
        if ty == _PAIR:
            if have and rng.random() < 0.4:
                return Var(rng.choice(have))
            return TupleE((gen(_INT, d - 1, env), gen(_INT, d - 1, env)))
        if ty == _MU_INT:
            if have and rng.random() < 0.4:
                return Var(rng.choice(have))
            return Fold(_MU_INT, gen(_INT, d - 1, env))
        if have and rng.random() < 0.5:
            return Var(rng.choice(have))
        params = tuple((fresh("p"), t) for t in ty.params)
        return Lam(params, gen(ty.result, d - 1, env + list(params)))

    def gen_int(d, env, have):
        choices = ["lit"]
        if have:
            choices += ["var", "var"]
        if d > 0:
            choices += ["binop", "binop", "if0", "call1", "call2",
                        "higher", "proj", "unfold", "let_fn", "seq_unit"]
        kind = rng.choice(choices)
        if kind == "lit":
            return IntE(rng.randint(-9, 99))
        if kind == "var":
            return Var(rng.choice(have))
        if kind == "binop":
            op = rng.choice(["+", "-", "*"])
            return BinOp(op, gen(_INT, d - 1, env), gen(_INT, d - 1, env))
        if kind == "if0":
            return If0(gen(_INT, d - 1, env), gen(_INT, d - 1, env),
                       gen(_INT, d - 1, env))
        if kind == "call1":
            return App(gen(_ARROW1, d - 1, env), (gen(_INT, d - 1, env),))
        if kind == "call2":
            return App(gen(_ARROW2, d - 1, env),
                       (gen(_INT, d - 1, env), gen(_INT, d - 1, env)))
        if kind == "higher":
            return App(gen(_HIGHER, d - 1, env),
                       (gen(_ARROW1, d - 1, env),))
        if kind == "proj":
            return Proj(rng.randrange(2), gen(_PAIR, d - 1, env))
        if kind == "unfold":
            return Unfold(gen(_MU_INT, d - 1, env))
        if kind == "let_fn":
            f = fresh("f")
            fn_ty = rng.choice([_ARROW1, _ARROW2])
            body = gen(_INT, d - 1, env + [(f, fn_ty)])
            return App(Lam(((f, fn_ty),), body), (gen(fn_ty, d - 1, env),))
        u = fresh("u")
        return App(Lam(((u, _UNIT),), gen(_INT, d - 1, env)),
                   (gen(_UNIT, d - 1, env),))

    return gen(_INT, depth, [])


class _Walk:
    """Tracks register and stack-slot kinds so that every emitted
    instruction is applicable in the current typing state."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.instrs: List = []
        self.regs: dict = {}    # reg -> 'int' | 'unit' | (ref|box, kinds)
        self.stack: List = []   # slot kinds, top first

    def _reg_of(self, kind):
        options = [r for r, k in self.regs.items() if k == kind]
        return self.rng.choice(options) if options else None

    def step(self) -> None:
        moves = ["mv_int", "mv_unit", "salloc"]
        if self._reg_of("int"):
            moves += ["aop", "aop"]
        if self.stack:
            moves += ["sld", "sfree"]
            if self.regs:
                moves.append("sst")
            moves.append("alloc_tuple")
        tuple_kinds = [k for k in self.regs.values() if isinstance(k, tuple)]
        if tuple_kinds:
            moves.append("ld")
            if any(k[0] == "ref" for k in tuple_kinds):
                moves.append("st")
        getattr(self, "_do_" + self.rng.choice(moves))()

    def _do_mv_int(self):
        rd = self.rng.choice(GP_REGISTERS)
        self.instrs.append(Mv(rd, WInt(self.rng.randint(-5, 5))))
        self.regs[rd] = "int"

    def _do_mv_unit(self):
        rd = self.rng.choice(GP_REGISTERS)
        self.instrs.append(Mv(rd, WUnit()))
        self.regs[rd] = "unit"

    def _do_aop(self):
        rs = self._reg_of("int")
        rd = self.rng.choice(GP_REGISTERS)
        op = self.rng.choice(AOP_NAMES)
        if self.rng.random() < 0.5:
            u = WInt(self.rng.randint(-3, 3))
        else:
            u = RegOp(rs)
        self.instrs.append(Aop(op, rd, rs, u))
        self.regs[rd] = "int"

    def _do_salloc(self):
        n = self.rng.randint(1, 3)
        self.instrs.append(Salloc(n))
        self.stack[:0] = ["unit"] * n

    def _do_sfree(self):
        n = self.rng.randint(1, len(self.stack))
        self.instrs.append(Sfree(n))
        del self.stack[:n]

    def _do_sld(self):
        i = self.rng.randrange(len(self.stack))
        rd = self.rng.choice(GP_REGISTERS)
        self.instrs.append(Sld(rd, i))
        self.regs[rd] = self.stack[i]

    def _do_sst(self):
        i = self.rng.randrange(len(self.stack))
        rs = self.rng.choice(list(self.regs))
        self.instrs.append(Sst(i, rs))
        self.stack[i] = self.regs[rs]

    def _do_alloc_tuple(self):
        n = self.rng.randint(1, min(2, len(self.stack)))
        rd = self.rng.choice(GP_REGISTERS)
        mutable = self.rng.random() < 0.5
        kinds = tuple(self.stack[:n])
        self.instrs.append((Ralloc if mutable else Balloc)(rd, n))
        del self.stack[:n]
        self.regs[rd] = ("ref" if mutable else "box", kinds)

    def _do_ld(self):
        options = [r for r, k in self.regs.items() if isinstance(k, tuple)]
        rs = self.rng.choice(options)
        kinds = self.regs[rs][1]
        i = self.rng.randrange(len(kinds))
        rd = self.rng.choice(GP_REGISTERS)
        if rd == rs:
            return  # loading over the pointer would lose its tracking
        self.instrs.append(Ld(rd, rs, i))
        self.regs[rd] = kinds[i]

    def _do_st(self):
        options = [r for r, k in self.regs.items()
                   if isinstance(k, tuple) and k[0] == "ref"]
        rd = self.rng.choice(options)
        kinds = self.regs[rd][1]
        slots = [i for i, k in enumerate(kinds)
                 if self._reg_of(k) is not None and not isinstance(k, tuple)]
        if not slots:
            return
        i = self.rng.choice(slots)
        self.instrs.append(St(rd, i, self._reg_of(kinds[i])))

    def finish(self) -> Component:
        if self.stack:
            self.instrs.append(Sfree(len(self.stack)))
        self.instrs.append(Mv("r1", WInt(self.rng.randint(0, 9))))
        self.instrs.append(Halt(TInt(), NIL_STACK, "r1"))
        return Component(seq(*self.instrs))


def t_program(seed: int, length: int) -> Component:
    """A well-typed straight-line T component halting with an ``int``."""
    walk = _Walk(random.Random(seed))
    for _ in range(length):
        walk.step()
    return walk.finish()


class Draw:
    """Stratified, round-trip-checked programs from one seeded pool.

    ``programs`` holds ``(text, parsed)`` pairs; ``skipped`` counts pool
    candidates whose printed form did not parse back to the same tree.
    """

    def __init__(self, programs: List[Tuple[str, object]], skipped: int):
        self.programs = programs
        self.skipped = skipped


def _round_trip(node, text: str):
    try:
        parsed = parse_program(text)
    except FunTALError:
        return None
    return parsed if parsed == node else None


def stratified(candidates: List[Tuple[str, object]], k: int,
               weight: Optional[Callable[[object], int]] = None) -> List:
    """``k`` of ``candidates``: the central 90% of the pool by text length
    (its edges vary less from seed to seed than its extremes) is cut into
    ``k`` equal strata, and each stratum gives its middle member -- by
    ``weight`` of the parsed program when given, else by length."""
    ordered = sorted(candidates, key=lambda c: (len(c[0]), c[0]))
    lo, span = len(ordered) // 20, len(ordered) * 9 // 10
    picked = []
    for i in range(k):
        stratum = ordered[lo + i * span // k:lo + (i + 1) * span // k]
        stratum = stratum or [ordered[lo + i * span // k]]
        if weight is not None:
            weights = [weight(node) for _, node in stratum]
            order = sorted(range(len(stratum)), key=weights.__getitem__)
            stratum = [stratum[j] for j in order]
        picked.append(stratum[len(stratum) // 2])
    return picked


def _draw(make: Callable[[], object], pool: int, k: int,
          weight: Optional[Callable[[object], int]]) -> Draw:
    candidates, skipped = [], 0
    for _ in range(pool):
        node = make()
        text = str(node)
        parsed = _round_trip(node, text)
        if parsed is None:
            skipped += 1
        else:
            candidates.append((text, parsed))
    return Draw(stratified(candidates, k, weight), skipped)


def draw_f(rng: random.Random, pool: int, k: int,
           weight: Optional[Callable[[object], int]] = None) -> Draw:
    """``k`` F programs stratified from a pool of ``pool`` seeded draws
    (see :func:`stratified` for ``weight``)."""
    return _draw(lambda: f_program(rng.randrange(1 << 30)), pool, k, weight)


def draw_t(rng: random.Random, pool: int, k: int,
           lengths: Tuple[int, int]) -> Draw:
    """``k`` T components stratified from ``pool`` random walks whose
    lengths are drawn from ``lengths`` (inclusive)."""
    return _draw(lambda: t_program(rng.randrange(1 << 30),
                                   rng.randint(*lengths)), pool, k, None)
