"""Every traversal built on the one walk runs on deeply nested terms and
types at the default recursion limit.

Each chain nests one form 10,000 deep (far past the ~1,000 frames the
host allows) over a leaf holding a stack lambda with a T type in its
prefix and a JIT-eligible lambda.  Results are read with
:func:`iter_subexprs` (itself iterative) or by identity: dataclass
equality, hashing and printing recurse once per level, so no assertion
compares whole terms.  Types nest the same way, over a stack-modifying
arrow; a CEK machine value nests deeper still.
"""

import hashlib
import re
import sys
from collections import Counter

import pytest

from repro.compile import jit_eligible, jit_rewrite
from repro.f.cek import cek_evaluate
from repro.f.syntax import (
    App, BinOp, FArrow, FInt, Fold, free_tvars, free_vars, FRec, ftype_equal,
    FTupleT, FTVar, FUnit, If0, IntE, iter_subexprs, Lam, subst_expr,
    subst_ftype, TupleE, Unfold, Var,
)
from repro.ft.syntax import (
    Boundary, FStackArrow, Import, Protect, StackLam,
)
from repro.link.linker import collect_labels
from repro.tal.equality import types_equal
from repro.tal.erasure import erase_types
from repro.tal.machine import rename_locs
from repro.tal.subst import (
    free_type_vars, map_tal_in_ftype, Subst, subst_term, subst_ty,
)
from repro import walk
from repro.tal.syntax import (
    Aop, CodeType, Component, DeltaBind, HCode, Halt, InstrSeq, Jmp,
    KIND_ALPHA, KIND_EPS, KIND_ZETA, Loc, Mv, NIL_STACK, Pack, QEnd, QEps,
    RegFileTy, RegOp, StackTy, TBox, TExists, TInt, TRef, TupleTy, TUnit,
    TVar, TyApp, Unpack, WInt, WLoc, seq,
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
        out = subst_expr(e, {"x": IntE(7)})
        before, after = census(e), census(out)
        assert after["var x"] == 0
        assert after["IntE"] == before["IntE"] + before["var x"]
        assert find(out, Lam)[0] is ARITH_LAM      # untouched: shared

    def test_subst_tal_in_fexpr(self, kind):
        e = chain(kind)
        out = subst_term(e, Subst.single(KIND_ALPHA, "a", TInt()))
        [lam] = find(out, StackLam)
        assert lam.phi_in == (TInt(),)
        assert find(out, Lam)[0] is ARITH_LAM
        assert census(out) == census(e)

    def test_tal_free_type_vars(self, kind):
        assert free_type_vars(chain(kind)) == {(KIND_ALPHA, "a")}

    def test_rename_locs_in_fexpr(self, kind):
        e = chain(kind)
        assert rename_locs(e, {Loc("l"): Loc("m")}) is e

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


    def test_deep_arithmetic_lambda_is_jit_eligible(self):
        """The JIT's scope test walks a lambda body of any depth."""
        body = Var("z")
        for _ in range(DEPTH):
            body = BinOp("+", IntE(1), body)
        lam = Lam((("z", FInt()),), body)
        assert jit_eligible(lam)
        assert not jit_eligible(Lam(lam.params, BinOp("+", body, Var("w"))))
        mark = IntE(-1)
        assert jit_rewrite(App(lam, (IntE(2),)),
                           lambda x: mark).fn is mark


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
        out = subst_expr(self.boundary(kind), {"x": IntE(7)})
        assert census(self.payload(out))["var x"] == 0
        assert free_vars(out) == FREE[kind] - {"x"}

    def test_rename_locs(self, kind):
        new = Loc("moved")
        out = rename_locs(self.boundary(kind), {self.LABEL: new})
        assert out.comp.heap[0][0] is new
        assert out.comp.instrs.term.u.loc is new


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

#: An F type over F's ``x`` and T's ``c``.
TYPE_LEAF = FStackArrow((FTVar("x"),), FInt(), (TVar("c"),), ())

F_WRAP = {
    "arrow": lambda t: FArrow((t,), FInt()),
    "tuple": lambda t: FTupleT((FUnit(), t)),
    "mu": lambda t: FRec("m", FArrow((FTVar("m"), t), FTVar("m"))),
}
T_WRAP = {
    "ref": lambda t: TRef((t, TVar("c"))),
    "exists": lambda t: TExists("a", TBox(TupleTy((TVar("a"), t)))),
    "code": lambda t: TBox(CodeType(
        (DeltaBind(KIND_ZETA, "z"),), RegFileTy.of(r1=t), StackTy((), "z"),
        QEps("e"))),
}


def type_chain(wrap, leaf):
    t = leaf
    for _ in range(DEPTH):
        t = wrap(t)
    return t


def leaf_of(t):
    [leaf] = [x for x in walk.preorder(t) if type(x) is FStackArrow]
    return leaf


@pytest.fixture(params=sorted(F_WRAP))
def f_kind(request):
    return request.param


class TestDeepTypes:
    def test_f_free_type_vars(self, f_kind):
        t = type_chain(F_WRAP[f_kind], TYPE_LEAF)
        assert free_tvars(t) == {"x"}
        assert free_type_vars(t) == {(KIND_ALPHA, "c")}

    def test_f_subst(self, f_kind):
        t = type_chain(F_WRAP[f_kind], TYPE_LEAF)
        out = subst_ftype(t, "x", FInt())
        assert leaf_of(out).params == (FInt(),)
        assert leaf_of(out).phi_in is TYPE_LEAF.phi_in     # T: untouched

    def test_f_subst_renames_every_capturing_binder(self):
        t = type_chain(F_WRAP["mu"], TYPE_LEAF)
        out = subst_ftype(t, "x", FTVar("m"))
        assert leaf_of(out).params == (FTVar("m"),)
        binders = [x.var for x in walk.preorder(out) if type(x) is FRec]
        assert len(binders) == DEPTH and "m" not in binders

    def test_t_in_f_map(self, f_kind):
        t = type_chain(F_WRAP[f_kind], TYPE_LEAF)
        assert map_tal_in_ftype(t, lambda x: x) is t
        s = Subst.single(KIND_ALPHA, "c", TInt())
        out = map_tal_in_ftype(t, lambda x: subst_ty(x, s))
        assert leaf_of(out).phi_in == (TInt(),)
        assert leaf_of(out).params is TYPE_LEAF.params     # F: untouched

    def test_f_alpha_equivalence(self, f_kind):
        wrap = F_WRAP[f_kind]
        one, two = type_chain(wrap, TYPE_LEAF), type_chain(wrap, TYPE_LEAF)
        assert ftype_equal(one, two)
        assert not ftype_equal(one, type_chain(wrap, FInt()))
        assert (walk.canonical(one) is one) == (f_kind != "mu")

    @pytest.mark.parametrize("t_kind", sorted(T_WRAP))
    def test_t_free_type_vars(self, t_kind):
        t = type_chain(T_WRAP[t_kind], TVar("b"))
        expected = {(KIND_ALPHA, "b"), (KIND_ALPHA, "c")} \
            if t_kind == "ref" else {(KIND_ALPHA, "b")}
        if t_kind == "code":
            expected.add((KIND_EPS, "e"))
        assert free_type_vars(t) == expected


    @pytest.mark.parametrize("t_kind", sorted(T_WRAP))
    def test_t_hash_and_memos(self, t_kind):
        """A fresh T type's first hash, which the substitution and
        equality memos key on, walks it with an explicit stack."""
        one = type_chain(T_WRAP[t_kind], TVar("b"))
        two = type_chain(T_WRAP[t_kind], TVar("b"))
        assert hash(one) == hash(two)
        assert types_equal(one, two)
        assert not types_equal(one, type_chain(T_WRAP[t_kind], TInt()))
        out = subst_ty(one, Subst.single(KIND_ALPHA, "b", TInt()))
        assert free_type_vars(out) == free_type_vars(one) - {
            (KIND_ALPHA, "b")}


# ---------------------------------------------------------------------------
# A deep machine value
# ---------------------------------------------------------------------------

class TestDeepValue:
    def test_closure_chain_reifies(self):
        """An F loop builds a closure 60,000 deep, each closing over the
        last; the CEK machine's value reifies to a lambda as deep."""
        n = 60_000
        acc = FArrow((FUnit(),), FInt())
        mu = FRec("a", FArrow((FTVar("a"),),
                              FArrow((FInt(), acc), acc)))
        f = Var("f")
        loop = Lam((("f", mu),), Lam(
            (("n", FInt()), ("acc", acc)),
            If0(Var("n"), Var("acc"),
                App(App(Unfold(f), (f,)), (
                    BinOp("-", Var("n"), IntE(1)),
                    Lam((("u", FUnit()),), App(Var("acc"), (Var("u"),))))))))
        start = Lam((("u", FUnit()),), IntE(7))
        value = cek_evaluate(
            App(App(loop, (Fold(mu, loop),)), (IntE(n), start)))
        lams = [x for x in iter_subexprs(value) if type(x) is Lam]
        assert len(lams) == n + 1 and lams[-1] is start


# ---------------------------------------------------------------------------
# T: one long instruction sequence
# ---------------------------------------------------------------------------

SEQ_LEN = 10_000
#: A copy short enough for a recursive traversal at the default limit;
#: the digests below pin each traversal's result on it.
SHORT_LEN = 200
LABEL_L = Loc("l0")


def t_sequence(n: int, protect: bool = True) -> InstrSeq:
    """``n`` instructions mentioning ``a``, ``b``, ``z``, ``e`` and the
    label ``l0``, with ``unpack <b, r4>`` at ``n // 2`` and ``protect
    <a>, z`` at ``3n // 4`` (left out when ``protect`` is false)."""
    target = TyApp(WLoc(LABEL_L), (TVar("a"), StackTy((), "z"), QEps("e")))
    package = Pack(TVar("a"), WLoc(LABEL_L),
                   TExists("c", TRef((TVar("c"), TVar("b")))))
    uses = (Mv("r1", target), Aop("add", "r2", "r2", WInt(3)),
            Mv("r3", package))
    instrs = []
    for k in range(n):
        if k == n // 2:
            instrs.append(Unpack("b", "r4", RegOp("r5")))
        elif protect and k == 3 * n // 4:
            instrs.append(Protect((TVar("a"),), "z"))
        else:
            instrs.append(uses[k % 3])
    return InstrSeq(tuple(instrs), Halt(TRef((TVar("a"), TVar("b"))),
                                        StackTy((), "z"), "r1"))


def digest(x) -> str:
    """A digest of ``x``'s text with fresh-name numbers dropped."""
    return hashlib.sha256(
        re.sub(r"%\d+", "%", str(x)).encode()).hexdigest()[:16]


def pieces(out: InstrSeq, n: int) -> list:
    """Per stretch between binders, the distinct instructions (fresh
    names dropped), then the binders and the terminator: the same for
    the long sequence and its short copy."""
    marks = [0, n // 2, n // 2 + 1, 3 * n // 4, 3 * n // 4 + 1, n]
    spans = [out.instrs[lo:hi] for lo, hi in zip(marks, marks[1:])]
    return [sorted({digest(i) for i in span}) for span in spans] + [
        digest(out.term)]


#: a := b captures unpack's b (renamed); z := nil stops at protect's z.
SUBST = Subst({(KIND_ALPHA, "a"): TVar("b"), (KIND_ZETA, "z"): NIL_STACK})


class TestLongSequence:
    """Each T traversal takes a 10,000-instruction sequence at the default
    recursion limit; on a 200-instruction copy its result is pinned by
    ``digest``, and the long result repeats the short one's pieces."""

    def test_free_type_vars(self):
        want = {(KIND_ALPHA, "a"), (KIND_ALPHA, "b"), (KIND_ZETA, "z"),
                (KIND_EPS, "e")}
        assert free_type_vars(t_sequence(SHORT_LEN)) == want
        assert free_type_vars(t_sequence(SEQ_LEN)) == want
        # b is bound after the unpack, z after the protect
        tail = InstrSeq(t_sequence(SEQ_LEN).instrs[SEQ_LEN // 2:],
                        Halt(TVar("b"), StackTy((), "z"), "r1"))
        assert free_type_vars(tail) == {(KIND_ALPHA, "a"), (KIND_ZETA, "z"),
                                        (KIND_EPS, "e")}

    def test_subst(self):
        short = subst_term(t_sequence(SHORT_LEN), SUBST)
        assert digest(short) == "f869c98ec30cb3fd"
        out = subst_term(t_sequence(SEQ_LEN), SUBST)
        assert pieces(out, SEQ_LEN) == pieces(short, SHORT_LEN)
        unpack = out.instrs[SEQ_LEN // 2]
        assert unpack.alpha != "b"                       # renamed
        assert out.term.ty == TRef((TVar("b"), TVar(unpack.alpha)))
        assert out.term.sigma == StackTy((), "z")        # bound by protect
        assert out.instrs[0].u.insts[1] == NIL_STACK     # free before it

    def test_rename_locs(self):
        mapping = {LABEL_L: Loc("m0")}
        short = rename_locs(t_sequence(SHORT_LEN), mapping)
        assert digest(short) == "895b7dbece729d42"
        long = t_sequence(SEQ_LEN)
        out = rename_locs(long, mapping)
        assert pieces(out, SEQ_LEN) == pieces(short, SHORT_LEN)
        assert out.instrs[1] is long.instrs[1]           # shared
        assert LABEL_L not in {x.loc for x in walk.preorder(out, walk.ALL)
                               if isinstance(x, WLoc)}

    def test_erase_types(self):
        short = erase_types(t_sequence(SHORT_LEN, protect=False))
        assert digest(short) == "415d3e1282ddc09e"
        assert short.term == Halt(TUnit(), NIL_STACK, "r1")
        out = erase_types(t_sequence(SEQ_LEN, protect=False))
        assert pieces(out, SEQ_LEN) == pieces(short, SHORT_LEN)
        with pytest.raises(TypeError, match="pure T; found Protect"):
            erase_types(t_sequence(SEQ_LEN))
