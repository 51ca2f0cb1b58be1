"""Hypothesis property tests on the core data structures and judgments.

These check the algebraic facts the paper's metatheory relies on:
alpha-equivalence is an equivalence relation; substitution respects it;
instantiation commutes with the parser round trip; determinism of the
machines; and the testable shadow of the Fundamental Property
(Theorem 5.1): every well-typed term is contextually equivalent to itself.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.equiv.observation import observe
from repro.f.eval import evaluate
from repro.f.syntax import ftype_equal
from repro.surface.parser import parse_component, parse_fexpr, parse_ttype
from repro.tal.equality import types_equal
from repro.tal.subst import (
    free_type_vars, Subst, subst_ty,
)
from repro.tal.syntax import (
    CodeType, DeltaBind, KIND_ALPHA, KIND_EPS, KIND_ZETA, NIL_STACK, QEnd,
    QEps, QOut, QReg, RegFileTy, StackTy, TBox, TExists, TInt, TRec, TRef,
    TupleTy, TUnit, TVar,
)

from tests.strategies import random_f_int_expr, random_t_program


# ---------------------------------------------------------------------------
# Random T value types
# ---------------------------------------------------------------------------

def random_ttype(seed: int, depth: int = 3, free=("a", "b")):
    rng = random.Random(seed)

    def gen(d, scope):
        opts = ["int", "unit"]
        if scope:
            opts += ["var", "var"]
        if d > 0:
            opts += ["exists", "mu", "ref", "boxtuple", "code"]
        kind = rng.choice(opts)
        if kind == "int":
            return TInt()
        if kind == "unit":
            return TUnit()
        if kind == "var":
            return TVar(rng.choice(scope))
        if kind == "exists":
            v = f"v{rng.randint(0, 2)}"
            return TExists(v, gen(d - 1, scope + [v]))
        if kind == "mu":
            v = f"v{rng.randint(0, 2)}"
            return TRec(v, gen(d - 1, scope + [v]))
        if kind == "ref":
            return TRef(tuple(gen(d - 1, scope)
                              for _ in range(rng.randint(1, 2))))
        if kind == "boxtuple":
            return TBox(TupleTy(tuple(gen(d - 1, scope)
                                      for _ in range(rng.randint(0, 2)))))
        # code type with one zeta and one eps
        inner = gen(d - 1, scope)
        return TBox(CodeType(
            (DeltaBind(KIND_ZETA, "zc"), DeltaBind(KIND_EPS, "ec")),
            RegFileTy.of(r1=inner), StackTy((), "zc"), QEps("ec")))

    return gen(depth, list(free))


class TestAlphaEquivalence:
    @given(st.integers(0, 5_000))
    @settings(max_examples=200, deadline=None)
    def test_reflexive(self, seed):
        ty = random_ttype(seed)
        assert types_equal(ty, ty)

    @given(st.integers(0, 5_000), st.integers(0, 5_000))
    @settings(max_examples=200, deadline=None)
    def test_symmetric(self, s1, s2):
        a, b = random_ttype(s1), random_ttype(s2)
        assert types_equal(a, b) == types_equal(b, a)

    @given(st.integers(0, 5_000))
    @settings(max_examples=100, deadline=None)
    def test_renamed_binders_equal(self, seed):
        ty = TExists("a", random_ttype(seed, free=["a"]))
        renamed = TExists("fresh", subst_ty(
            ty.body, Subst.single(KIND_ALPHA, "a", TVar("fresh"))))
        assert types_equal(ty, renamed)


class TestSubstitution:
    @given(st.integers(0, 5_000))
    @settings(max_examples=200, deadline=None)
    def test_identity_substitution(self, seed):
        ty = random_ttype(seed)
        assert subst_ty(ty, Subst.single(KIND_ALPHA, "a", TVar("a"))) == ty

    @given(st.integers(0, 5_000), st.integers(0, 5_000))
    @settings(max_examples=200, deadline=None)
    def test_substitution_removes_variable(self, s1, s2):
        ty = random_ttype(s1)
        replacement = random_ttype(s2, free=["b"])
        out = subst_ty(ty, Subst.single(KIND_ALPHA, "a", replacement))
        assert (KIND_ALPHA, "a") not in free_type_vars(out)

    @given(st.integers(0, 5_000))
    @settings(max_examples=200, deadline=None)
    def test_irrelevant_substitution_is_identity(self, seed):
        ty = random_ttype(seed, free=["a"])
        out = subst_ty(ty, Subst.single(KIND_ALPHA, "zzz", TInt()))
        assert out == ty

    @given(st.integers(0, 5_000))
    @settings(max_examples=100, deadline=None)
    def test_stack_substitution_preserves_depth(self, seed):
        rng = random.Random(seed)
        prefix = tuple(random_ttype(rng.randint(0, 999), depth=1)
                       for _ in range(rng.randint(0, 3)))
        sigma = StackTy(prefix, "z")
        replacement = StackTy(
            tuple(random_ttype(rng.randint(0, 999), depth=1)
                  for _ in range(rng.randint(0, 3))), None)
        out = subst_ty(sigma, Subst.single(KIND_ZETA, "z", replacement))
        assert len(out.prefix) == len(prefix) + len(replacement.prefix)
        assert out.tail is None


class TestParserRoundTrip:
    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_f_expressions(self, seed):
        e = random_f_int_expr(seed, depth=3)
        assert parse_fexpr(str(e)) == e

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_t_types(self, seed):
        ty = random_ttype(seed)
        assert parse_ttype(str(ty)) == ty

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_t_components(self, seed):
        comp = random_t_program(seed, length=8)
        assert parse_component(str(comp)) == comp


class TestDeterminism:
    @given(st.integers(0, 5_000))
    @settings(max_examples=60, deadline=None)
    def test_f_evaluation_deterministic(self, seed):
        e = random_f_int_expr(seed, depth=3)
        assert evaluate(e) == evaluate(e)

    @given(st.integers(0, 5_000))
    @settings(max_examples=60, deadline=None)
    def test_observation_deterministic(self, seed):
        e = random_f_int_expr(seed, depth=3)
        assert observe(e) == observe(e)


class TestFundamentalPropertyShadow:
    """Theorem 5.1, testably: every well-typed term is equivalent to
    itself under the differential checker."""

    @given(st.integers(0, 2_000))
    @settings(max_examples=20, deadline=None)
    def test_random_f_terms_self_related(self, seed):
        from repro.equiv.checker import check_equivalence
        from repro.f.syntax import FInt

        e = random_f_int_expr(seed, depth=3)
        report = check_equivalence(e, e, FInt(), fuel=20_000,
                                   typecheck=False)
        assert report.equivalent

    def test_paper_corpus_self_related(self):
        from repro.equiv.checker import check_equivalence
        from repro.papers_examples import fig16_two_blocks as f16

        for build in (f16.build_f1, f16.build_f2):
            report = check_equivalence(build(), build(), f16.ARROW,
                                       fuel=20_000, max_contexts=8)
            assert report.equivalent
