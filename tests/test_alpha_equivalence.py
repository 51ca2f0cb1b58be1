"""Alpha-equivalence is one symmetric check (:func:`repro.walk.alpha_equal`).

A check that renames binders in one direction only -- the left type's
bound names mapped to the right's, the right's free names compared
literally -- equates ``exists a. b`` with ``exists b. b``: the left's free
``b`` matches the right's bound one.  The T typechecker then accepts a
program that gets stuck on both T engines.  Here that program is
rejected, each such pair is unequal in both orders, and on random F
types and the T types of compiled programs the check agrees in both
orders with equality of :func:`repro.walk.canonical` forms.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import walk
from repro.compile import compile_term
from repro.errors import FTTypeError, MachineError
from repro.f.syntax import FArrow, FRec, FTVar, ftype_equal
from repro.papers_examples.fig17_factorial import build_fact_f
from repro.tal.equality import clear_equality_cache, types_equal
from repro.tal.machine import run_component
from repro.tal.syntax import (
    Aop, CodeType, Component, DeltaBind, Halt, HCode, Jmp, KIND_ALPHA,
    KIND_EPS, KIND_ZETA, Loc, Mv, NIL_STACK, Pack, QEnd, QEps, RegFileTy,
    RegOp, StackTy, TBox, TExists, TInt, TUnit, TVar, TyApp, Unpack, WInt,
    WLoc, WUnit, seq,
)
from repro.tal.typecheck import check_program
from tests.strategies import random_f_type, random_full_f_expr

END = QEnd(TInt(), NIL_STACK)


def code_type(delta=(), **chi) -> CodeType:
    """``forall[delta].{chi; nil} end{int; nil}``."""
    return CodeType(tuple(delta), RegFileTy.of(**chi), NIL_STACK, END)


def block(delta, chi, *instrs) -> HCode:
    ct = code_type(delta, **chi)
    return HCode(ct.delta, ct.chi, ct.sigma, ct.q, seq(*instrs))


def alpha(name):
    return DeltaBind(KIND_ALPHA, name)


def stuck_program() -> Component:
    """Well typed only if ``exists a. b`` equals ``exists b. b``: ``l2``
    hands ``luse`` a packed ``()`` where ``luse`` expects a package of
    the caller's abstract ``b``, ``int`` underneath, and ``lf`` adds 1
    to it."""
    b, c = TVar("b"), TVar("c")
    lf, luse, l2 = Loc("lf"), Loc("luse"), Loc("l2")
    heap = (
        (lf, block((), {"r1": TInt()},
                   Aop("add", "r1", "r1", WInt(1)),
                   Halt(TInt(), NIL_STACK, "r1"))),
        (luse, block((alpha("c"),),
                     {"r1": TExists("a", c), "r2": TBox(code_type(r1=c))},
                     Unpack("d", "r1", RegOp("r1")), Jmp(RegOp("r2")))),
        (l2, block((alpha("b"),),
                   {"r2": TBox(code_type(r1=b)),
                    "r3": TBox(code_type(r1=TExists("b", b),
                                         r2=TBox(code_type(r1=b))))},
                   Mv("r1", Pack(TUnit(), WUnit(), TExists("b", b))),
                   Jmp(RegOp("r3")))),
    )
    entry = seq(
        Mv("r5", Pack(TInt(), WLoc(lf),
                      TExists("b", TBox(code_type(r1=b))))),
        Unpack("b", "r5", RegOp("r5")),
        Mv("r2", RegOp("r5")),
        Mv("r3", TyApp(WLoc(luse), (b,))),
        Jmp(TyApp(WLoc(l2), (b,))))
    return Component(entry, heap)


class TestStuckProgram:
    def test_rejected(self):
        clear_equality_cache()
        with pytest.raises(FTTypeError):
            check_program(stuck_program(), TInt())

    @pytest.mark.parametrize("engine", ["ref", "fast"])
    def test_it_is_stuck(self, engine):
        """Run unchecked, the program traps: accepting it was unsound."""
        with pytest.raises(MachineError, match="non-int"):
            run_component(stuck_program(), tal_engine=engine)


def unequal_both_ways(check, a, b):
    return not check(a, b) and not check(b, a)


class TestCapturePairs:
    """A free variable of one side named as a binder of the other."""

    def test_exists(self):
        clear_equality_cache()
        assert unequal_both_ways(types_equal, TExists("a", TVar("b")),
                                 TExists("b", TVar("b")))

    def test_mu(self):
        b = FTVar("b")
        assert unequal_both_ways(ftype_equal,
                                 FRec("a", FArrow((b,), b)),
                                 FRec("b", FArrow((b,), b)))

    def test_code_type_delta(self):
        clear_equality_cache()
        free_b = code_type((alpha("c"),), r1=TVar("b"))
        bound_b = code_type((alpha("b"),), r1=TVar("b"))
        assert unequal_both_ways(types_equal, free_b, bound_b)

    def test_stack_and_marker_binders(self):
        clear_equality_cache()
        binds = (DeltaBind(KIND_ZETA, "z"), DeltaBind(KIND_EPS, "e"))
        bound = CodeType(binds, RegFileTy(), StackTy((), "z"), QEps("e"))
        free = CodeType((DeltaBind(KIND_ZETA, "y"),
                         DeltaBind(KIND_EPS, "f")),
                        RegFileTy(), StackTy((), "z"), QEps("e"))
        assert unequal_both_ways(types_equal, bound, free)


# ---------------------------------------------------------------------------
# Symmetry, against canonical forms
# ---------------------------------------------------------------------------

def rebound(ty, rng: random.Random, names):
    """``ty`` with each binder renamed to a name drawn from ``names``,
    its occurrences left as they are: a copy that may or may not be
    alpha-equivalent (a drawn name can capture a free variable, or free
    a bound one)."""
    def post(node, results):
        node = walk.rebuild(node, results)
        delta = walk.binders(node)
        if delta is not None:
            return walk.rebind(node, tuple(
                DeltaBind(b.kind, rng.choice(names)) for b in delta))
        if walk.bound_keys(node):
            return walk.rebind(node, rng.choice(names))
        return node
    return walk.fold(ty, post=post)


def agrees(check, a, b) -> bool:
    """The check is symmetric on ``a`` and ``b`` and agrees with equality
    of canonical forms."""
    verdict = walk.canonical(a) == walk.canonical(b)
    return check(a, b) == check(b, a) == verdict


class TestSymmetry:
    @given(st.integers(0, 5_000), st.integers(0, 5_000))
    @settings(max_examples=300, deadline=None)
    def test_random_f_types(self, s1, s2):
        a, b = random_f_type(s1), random_f_type(s2)
        assert agrees(ftype_equal, a, b)
        rng = random.Random(s2)
        for _ in range(3):
            assert agrees(ftype_equal, a, rebound(a, rng, "ab"))

    @staticmethod
    def compiled_types():
        """Every T type written in the components of a few compiled
        programs: Fig 17's ``fact_f`` and random whole-F programs."""
        sources = [build_fact_f()] + [random_full_f_expr(seed)
                                      for seed in range(12)]
        found = []
        for source in sources:
            comp = compile_term(source).component
            for term in walk.preorder(comp, walk.ALL):
                walk.map_types(term, lambda t: t,
                               lambda t: found.append(t) or t)
        return found

    def test_compiled_t_types(self):
        clear_equality_cache()
        types = self.compiled_types()
        assert any(walk.bound_keys(t) or walk.binders(t) is not None
                   for t in types)
        rng = random.Random(0)
        for ty in types:
            names = sorted({n for _, n in walk.free_keys(ty)}
                           | {n for _, n in _binder_keys(ty)} | {"a"})
            for _ in range(2):
                assert agrees(types_equal, ty, rebound(ty, rng, names))


def _binder_keys(ty):
    return [k for t in walk.preorder(ty) for k in walk.bound_keys(t)]
