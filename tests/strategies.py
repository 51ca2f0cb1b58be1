"""Random well-typed program generators for the property-based tests.

Two generators:

* :func:`random_f_int_expr` -- a closed, well-typed F expression of type
  ``int``, built top-down from a seeded RNG (arithmetic, branches,
  applications, tuples/projections, fold/unfold);
* :func:`random_full_f_expr` -- a closed, well-typed F expression of
  type ``int`` drawn from the *whole* language, type-directed: escaping
  closures over captured variables, multi-argument and higher-order
  lambdas, tuples of mixed type, ``unit``, and iso-recursive
  ``fold``/``unfold`` as first-class values.  This is the input
  distribution for the compiler's differential suite
  (``tests/test_compile_differential.py``), so it deliberately produces
  lambdas that *escape* (get bound, passed, and applied later) rather
  than only beta-redexes;
* :func:`random_t_program` -- a well-typed straight-line T component,
  built by a *typed random walk*: the generator mirrors the typechecker's
  ``InstrState`` and only ever emits an instruction that is applicable in
  the current state, finishing with a coherent ``halt``;
* :func:`random_f_type` -- an FT type drawn from every type former the
  boundary translation handles (not necessarily well formed: free type
  variables are allowed);
* :func:`random_counted_loop` -- a well-typed T component around one
  block that counts a register down and ``bnz``-jumps back to itself,
  the loop shape the fast T tier's loop JIT runs.

All are deterministic in their seed, so hypothesis can shrink on seeds.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.f.syntax import (
    App, BinOp, FArrow, FInt, Fold, FRec, FTupleT, FTVar, FUnit, If0,
    IntE, Lam, Proj, TupleE, Unfold, UnitE, Var,
)
from repro.tal.syntax import (
    Aop, AOP_NAMES, Balloc, Bnz, Component, GP_REGISTERS, Halt, HCode, Jmp,
    Ld, Loc, Mv, NIL_STACK, QEnd, Ralloc, RegFileTy, RegOp, Salloc, seq,
    Sfree, Sld, Sst, St, StackTy, TBox, TInt, TRef, TUnit, TupleTy, WInt,
    WLoc, WUnit,
)

__all__ = ["random_f_int_expr", "random_full_f_expr", "random_t_program",
           "random_f_type", "random_counted_loop", "raw_codegen"]


def raw_codegen(source) -> Component:
    """The compiler's component for the closed F term ``source`` before
    its peephole optimizer: closure conversion and code generation
    alone."""
    from repro.compile import (
        closure_convert, generate_expr, generate_function, NameSupply,
    )

    supply = NameSupply()
    prog = closure_convert(source, None, supply)
    generate = generate_function if prog.main_code is not None \
        else generate_expr
    return generate(prog, supply)


# ---------------------------------------------------------------------------
# F generator
# ---------------------------------------------------------------------------

def random_f_int_expr(seed: int, depth: int = 4):
    """A closed well-typed F expression of type int."""
    rng = random.Random(seed)
    counter = [0]

    def fresh(base: str) -> str:
        counter[0] += 1
        return f"{base}{counter[0]}"

    def gen_int(d: int, env: List[str]):
        # env lists in-scope int variables
        choices = ["lit"]
        if d > 0:
            choices += ["binop", "binop", "if0", "app", "proj", "mu"]
        if env:
            choices += ["var", "var"]
        kind = rng.choice(choices)
        if kind == "lit":
            return IntE(rng.randint(-9, 99))
        if kind == "var":
            return Var(rng.choice(env))
        if kind == "binop":
            op = rng.choice(["+", "-", "*"])
            return BinOp(op, gen_int(d - 1, env), gen_int(d - 1, env))
        if kind == "if0":
            return If0(gen_int(d - 1, env), gen_int(d - 1, env),
                       gen_int(d - 1, env))
        if kind == "app":
            x = fresh("x")
            body = gen_int(d - 1, env + [x])
            return App(Lam(((x, FInt()),), body), (gen_int(d - 1, env),))
        if kind == "proj":
            width = rng.randint(1, 3)
            index = rng.randrange(width)
            items = tuple(gen_int(d - 1, env) for _ in range(width))
            return Proj(index, TupleE(items))
        # mu: fold then immediately unfold (exercises iso-recursion)
        mu = FRec("a", FInt())
        return Unfold(Fold(mu, gen_int(d - 1, env)))

    return gen_int(depth, [])


# ---------------------------------------------------------------------------
# Full-F generator (type-directed, whole language)
# ---------------------------------------------------------------------------

# The closed universe of types the generator draws from.  Finite on
# purpose: every type is one the general tier's calling convention must
# handle (ints, unit, tuples, first-order and higher-order arrows, an
# iso-recursive wrapper), and a finite universe guarantees a variable of
# the wanted type is often in scope, so generated terms really do reuse
# their captures.
_INT = FInt()
_UNIT = FUnit()
_PAIR = FTupleT((_INT, _INT))
_ARROW1 = FArrow((_INT,), _INT)            # int -> int
_ARROW2 = FArrow((_INT, _INT), _INT)       # (int, int) -> int
_HIGHER = FArrow((_ARROW1,), _INT)         # (int -> int) -> int
_MU_INT = FRec("a", _INT)                  # mu a. int


def random_full_f_expr(seed: int, depth: int = 3):
    """A closed well-typed F expression of type ``int`` exercising the
    whole language (the general compilation tier's domain).

    Every lambda is non-recursive, so evaluation always terminates; the
    interesting structure is in *where* lambdas flow: they are bound to
    variables, captured by other lambdas, passed to higher-order
    functions, and only then applied.
    """
    rng = random.Random(seed)
    counter = [0]

    def fresh(base: str) -> str:
        counter[0] += 1
        return f"{base}{counter[0]}"

    def vars_of(env, ty):
        return [x for x, t in env if t == ty]

    def gen(ty, d, env):
        """An expression of type ``ty`` under ``env`` ([(name, type)])."""
        have = vars_of(env, ty)
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
        if isinstance(ty, FArrow):
            if have and rng.random() < 0.5:
                return Var(rng.choice(have))
            params = tuple((fresh("p"), t) for t in ty.params)
            body_env = env + list(params)
            return Lam(params, gen(ty.result, d - 1, body_env))
        raise AssertionError(f"unhandled type {ty}")

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
            # bind a closure, then use it (possibly several levels down)
            f = fresh("f")
            fn_ty = rng.choice([_ARROW1, _ARROW2])
            body = gen(_INT, d - 1, env + [(f, fn_ty)])
            return App(Lam(((f, fn_ty),), body),
                       (gen(fn_ty, d - 1, env),))
        # seq_unit: evaluate a unit for effect-shape, return an int
        u = fresh("u")
        return App(Lam(((u, _UNIT),), gen(_INT, d - 1, env)),
                   (gen(_UNIT, d - 1, env),))

    return gen(_INT, depth, [])


# ---------------------------------------------------------------------------
# T generator (typed random walk)
# ---------------------------------------------------------------------------

class _Walk:
    """Mirrors the typing state while emitting applicable instructions."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.instrs: List = []
        self.regs: dict = {}          # reg -> 'int' | 'unit' | ('ref', n) | ('box', n)
        self.stack: List[str] = []    # slot kinds, top first

    def _free_reg(self):
        return self.rng.choice(GP_REGISTERS)

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
        tuple_regs = [r for r, k in self.regs.items()
                      if isinstance(k, tuple)]
        if tuple_regs:
            moves.append("ld")
            if any(k[0] == "ref" for k in self.regs.values()
                   if isinstance(k, tuple)):
                moves.append("st")
        move = self.rng.choice(moves)
        getattr(self, "_do_" + move)()

    def _do_mv_int(self):
        rd = self._free_reg()
        self.instrs.append(Mv(rd, WInt(self.rng.randint(-5, 5))))
        self.regs[rd] = "int"

    def _do_mv_unit(self):
        rd = self._free_reg()
        self.instrs.append(Mv(rd, WUnit()))
        self.regs[rd] = "unit"

    def _do_aop(self):
        rs = self._reg_of("int")
        rd = self._free_reg()
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
        rd = self._free_reg()
        self.instrs.append(Sld(rd, i))
        self.regs[rd] = self.stack[i]

    def _do_sst(self):
        i = self.rng.randrange(len(self.stack))
        rs = self.rng.choice(list(self.regs))
        self.instrs.append(Sst(i, rs))
        self.stack[i] = self.regs[rs]

    def _do_alloc_tuple(self):
        n = self.rng.randint(1, min(2, len(self.stack)))
        rd = self._free_reg()
        mutable = self.rng.random() < 0.5
        kinds = tuple(self.stack[:n])
        self.instrs.append((Ralloc if mutable else Balloc)(rd, n))
        del self.stack[:n]
        self.regs[rd] = (("ref" if mutable else "box"), kinds)

    def _do_ld(self):
        options = [r for r, k in self.regs.items() if isinstance(k, tuple)]
        rs = self.rng.choice(options)
        kinds = self.regs[rs][1]
        i = self.rng.randrange(len(kinds))
        rd = self._free_reg()
        if rd == rs:
            return  # loading over the pointer would lose our tracking
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
        rs = self._reg_of(kinds[i])
        self.instrs.append(St(rd, i, rs))

    def finish(self) -> Component:
        # clear the stack, put an int in r1, halt at end{int; nil}
        if self.stack:
            self.instrs.append(Sfree(len(self.stack)))
        self.instrs.append(Mv("r1", WInt(self.rng.randint(0, 9))))
        self.instrs.append(Halt(TInt(), NIL_STACK, "r1"))
        return Component(seq(*self.instrs))


def random_t_program(seed: int, length: int = 12) -> Component:
    """A well-typed straight-line T component halting with an int."""
    rng = random.Random(seed)
    walk = _Walk(rng)
    for _ in range(length):
        walk.step()
    return walk.finish()


# ---------------------------------------------------------------------------
# FT type generator
# ---------------------------------------------------------------------------

def random_f_type(seed: int, depth: int = 3):
    """An FT type over every former :func:`repro.ft.translate.
    type_translation` handles: variables, ``unit``, ``int``, ``mu``,
    tuples, arrows, stack-modifying arrows and lumps."""
    from repro.ft.lump import FLump
    from repro.ft.syntax import FStackArrow

    rng = random.Random(seed)
    t_leaves = (TInt(), TUnit(), TBox(TupleTy((TInt(), TInt()))))

    def gen(d):
        if d <= 0 or rng.random() < 0.25:
            return rng.choice((FInt(), FUnit(), FTVar(rng.choice("ab"))))
        pick = rng.randrange(5)
        if pick == 0:
            return FRec(rng.choice("ab"), gen(d - 1))
        if pick == 1:
            return FTupleT(tuple(gen(d - 1)
                                 for _ in range(rng.randint(0, 3))))
        if pick == 2:
            return FArrow(tuple(gen(d - 1) for _ in range(rng.randint(0, 2))),
                          gen(d - 1))
        if pick == 3:
            return FStackArrow(
                tuple(gen(d - 1) for _ in range(rng.randint(0, 2))),
                gen(d - 1),
                tuple(rng.choice(t_leaves) for _ in range(rng.randint(0, 2))),
                tuple(rng.choice(t_leaves)
                      for _ in range(rng.randint(0, 2))))
        return FLump(tuple(rng.choice(t_leaves)
                           for _ in range(rng.randint(1, 3))))

    return gen(depth)


# ---------------------------------------------------------------------------
# Counted-loop generator
# ---------------------------------------------------------------------------

def random_counted_loop(seed: int) -> Component:
    """A well-typed T component that jumps into one self-looping block.

    The block holds 2-4 int registers.  One counts down from 20-60; the
    others take a random prefix of ``aop``/``mv`` instructions, and the
    block ``bnz``-jumps back to itself while the counter is nonzero, then
    halts with one of them.  ``mul`` only takes constants, so values stay
    polynomial in size.  About one loop in three also reads or writes a
    stack slot, which keeps it off the all-register loop form."""
    rng = random.Random(seed)
    regs = rng.sample(GP_REGISTERS[1:], rng.randint(2, 4))
    counter, accs = regs[0], regs[1:]
    body: List = []
    for _ in range(rng.randint(0, 4)):
        rd = rng.choice(accs)
        if rng.random() < 0.25:
            u = (WInt(rng.randint(-3, 3)) if rng.random() < 0.5
                 else RegOp(rng.choice(regs)))
            body.append(Mv(rd, u))
            continue
        op = rng.choice(AOP_NAMES)
        u = (WInt(rng.randint(-3, 3)) if op == "mul" or rng.random() < 0.5
             else RegOp(rng.choice(regs)))
        body.append(Aop(op, rd, rng.choice(regs), u))
    body.insert(rng.randint(0, len(body)),
                Aop("sub", counter, counter, WInt(1)))
    stack = rng.random() < 1 / 3
    if stack:
        body.insert(rng.randint(0, len(body)),
                    Sst(0, rng.choice(regs)) if rng.random() < 0.5
                    else Sld(rng.choice(accs), 0))
    sigma = StackTy((TInt(),), None) if stack else NIL_STACK
    end = QEnd(TInt(), NIL_STACK)
    loop = Loc("lloop")
    tail = [Sfree(1)] if stack else []
    block = HCode((), RegFileTy.of(**{r: TInt() for r in regs}), sigma, end,
                  seq(*body, Bnz(counter, WLoc(loop)), *tail,
                      Mv("r1", RegOp(accs[0])),
                      Halt(TInt(), NIL_STACK, "r1")))
    entry = [Mv(counter, WInt(rng.randint(20, 60)))]
    entry += [Mv(r, WInt(rng.randint(-3, 3))) for r in accs]
    if stack:
        entry += [Salloc(1), Sst(0, counter)]
    return Component(seq(*entry, Jmp(WLoc(loop))), ((loop, block),))
