"""Every traversal built on the one term walk runs on deeply nested terms
at the default recursion limit.

Each chain nests one form 10,000 deep (far past the ~1,000 frames the
host allows) over a leaf holding a stack lambda with a T type in its
prefix and a JIT-eligible lambda.  Results are read with
:func:`iter_subexprs` (itself iterative) or by identity: dataclass
equality, hashing and printing recurse once per level, so no assertion
compares whole terms.
"""

import sys
from collections import Counter

import pytest

from repro.compile import jit_rewrite
from repro.f.syntax import (
    App, BinOp, FInt, free_vars, If0, IntE, iter_subexprs, Lam,
    subst_expr, TupleE, Var,
)
from repro.ft.syntax import (
    Boundary, Import, rename_locs_in_fexpr, StackLam, subst_tal_in_fexpr,
    tal_free_type_vars_of_fexpr,
)
from repro.link.linker import collect_labels
from repro.tal.machine import rename_locs
from repro.tal.subst import Subst
from repro.tal.syntax import (
    Component, HCode, Halt, Jmp, KIND_ALPHA, Loc, NIL_STACK, QEnd,
    RegFileTy, TInt, TVar, WLoc, seq,
)

DEPTH = 10_000

STACK_LAM = StackLam((("y", FInt()),), Var("x"), (TVar("a"),), ())
ARITH_LAM = Lam((("z", FInt()),), BinOp("+", Var("z"), IntE(1)))
LEAF = TupleE((STACK_LAM, ARITH_LAM))

WRAP = {
    "binop": lambda e: BinOp("+", e, IntE(1)),
    "if0": lambda e: If0(e, IntE(0), IntE(1)),
    "app": lambda e: App(Var("f"), (e,)),
    "tuple": lambda e: TupleE((e, IntE(1))),
}
#: Free variables of a chain: the leaf's ``x``, and ``f`` for App.
FREE = {"binop": {"x"}, "if0": {"x"}, "app": {"x", "f"}, "tuple": {"x"}}


def chain(kind: str):
    e = LEAF
    for _ in range(DEPTH):
        e = WRAP[kind](e)
    return e


def census(e) -> Counter:
    """How many nodes of each class, and of each variable, ``e`` holds."""
    counts = Counter()
    for x in iter_subexprs(e):
        counts[type(x).__name__] += 1
        if isinstance(x, Var):
            counts["var " + x.name] += 1
    return counts


def find(e, cls):
    return [x for x in iter_subexprs(e) if type(x) is cls]


@pytest.fixture(autouse=True)
def default_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@pytest.fixture(params=sorted(WRAP))
def kind(request):
    return request.param


class TestDeepChains:
    def test_iter_subexprs(self, kind):
        per_level = sum(1 for _ in iter_subexprs(WRAP[kind](IntE(0)))) - 1
        nodes = sum(1 for _ in iter_subexprs(chain(kind)))
        assert nodes == DEPTH * per_level + sum(1 for _ in iter_subexprs(LEAF))

    def test_free_vars(self, kind):
        assert free_vars(chain(kind)) == FREE[kind]

    def test_subst_expr(self, kind):
        e = chain(kind)
        out = subst_expr(e, "x", IntE(7))
        before, after = census(e), census(out)
        assert after["var x"] == 0
        assert after["IntE"] == before["IntE"] + before["var x"]
        assert find(out, Lam)[0] is ARITH_LAM      # untouched: shared

    def test_subst_tal_in_fexpr(self, kind):
        e = chain(kind)
        out = subst_tal_in_fexpr(e, Subst.single(KIND_ALPHA, "a", TInt()))
        [lam] = find(out, StackLam)
        assert lam.phi_in == (TInt(),)
        assert find(out, Lam)[0] is ARITH_LAM
        assert census(out) == census(e)

    def test_tal_free_type_vars(self, kind):
        assert tal_free_type_vars_of_fexpr(chain(kind)) == {(KIND_ALPHA, "a")}

    def test_rename_locs_in_fexpr(self, kind):
        e = chain(kind)
        assert rename_locs_in_fexpr(e, {Loc("l"): Loc("m")}, rename_locs) is e

    def test_collect_labels(self, kind):
        assert collect_labels(chain(kind)) == set()

    def test_jit_rewrite(self, kind):
        mark = IntE(-1)
        compiled = []

        def compile_lambda(lam):
            compiled.append(lam)
            return mark

        out = jit_rewrite(chain(kind), compile_lambda)
        assert compiled == [ARITH_LAM]
        assert sum(1 for x in iter_subexprs(out) if x is mark) == 1
        assert find(out, StackLam) == [STACK_LAM]


class TestDeepPayload:
    """A chain inside an ``import`` payload of a code block: the walks
    that cross boundaries reach it without recursing."""

    LABEL = Loc("blk")

    def boundary(self, kind):
        block = HCode((), RegFileTy(), NIL_STACK, QEnd(TInt(), NIL_STACK),
                      seq(Import("r1", NIL_STACK, FInt(), chain(kind)),
                          Halt(TInt(), NIL_STACK, "r1")))
        comp = Component(seq(Jmp(WLoc(self.LABEL))), ((self.LABEL, block),))
        return Boundary(FInt(), comp)

    def payload(self, b):
        return b.comp.heap[0][1].instrs.instrs[0].expr

    def test_free_vars_and_labels(self, kind):
        b = self.boundary(kind)
        assert free_vars(b) == FREE[kind]
        assert collect_labels(b) == {self.LABEL}

    def test_subst_expr(self, kind):
        out = subst_expr(self.boundary(kind), "x", IntE(7))
        assert census(self.payload(out))["var x"] == 0
        assert free_vars(out) == FREE[kind] - {"x"}

    def test_rename_locs(self, kind):
        new = Loc("moved")
        out = rename_locs_in_fexpr(self.boundary(kind), {self.LABEL: new},
                                   rename_locs)
        assert out.comp.heap[0][0] is new
        assert out.comp.instrs.term.u.loc is new
