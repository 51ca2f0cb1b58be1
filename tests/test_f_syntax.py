"""Unit tests for F abstract syntax: construction, printing, free
variables, substitution, and alpha-equivalence (paper Fig 5)."""

import pytest

from repro.f.syntax import (
    App, BinOp, FArrow, FInt, Fold, FRec, FTupleT, FTVar, FUnit, free_tvars,
    free_vars, ftype_equal, If0, IntE, is_value, iter_subexprs, Lam, Proj,
    subst_expr, subst_ftype, TupleE, Unfold, UnitE, Var,
)


class TestTypeConstruction:
    def test_base_types_print(self):
        assert str(FUnit()) == "unit"
        assert str(FInt()) == "int"
        assert str(FTVar("a")) == "a"

    def test_arrow_prints_n_ary(self):
        arrow = FArrow((FInt(), FUnit()), FInt())
        assert str(arrow) == "(int, unit) -> int"

    def test_mu_prints(self):
        assert str(FRec("a", FTVar("a"))) == "mu a. a"

    def test_tuple_prints(self):
        assert str(FTupleT((FInt(), FInt()))) == "<int, int>"

    def test_types_are_hashable_and_structural(self):
        assert FArrow((FInt(),), FInt()) == FArrow((FInt(),), FInt())
        assert hash(FInt()) == hash(FInt())
        assert FInt() != FUnit()

    def test_arrow_params_coerced_to_tuple(self):
        arrow = FArrow([FInt()], FInt())
        assert isinstance(arrow.params, tuple)


class TestFreeTvars:
    def test_var_is_free(self):
        assert free_tvars(FTVar("a")) == {"a"}

    def test_mu_binds(self):
        assert free_tvars(FRec("a", FTVar("a"))) == set()

    def test_mu_keeps_other_vars_free(self):
        ty = FRec("a", FArrow((FTVar("b"),), FTVar("a")))
        assert free_tvars(ty) == {"b"}

    def test_base_types_closed(self):
        assert free_tvars(FInt()) == set()
        assert free_tvars(FUnit()) == set()

    def test_tuple_collects(self):
        assert free_tvars(FTupleT((FTVar("a"), FTVar("b")))) == {"a", "b"}


class TestSubstFtype:
    def test_substitutes_var(self):
        assert subst_ftype(FTVar("a"), "a", FInt()) == FInt()

    def test_leaves_other_vars(self):
        assert subst_ftype(FTVar("b"), "a", FInt()) == FTVar("b")

    def test_shadowed_binder_blocks(self):
        ty = FRec("a", FTVar("a"))
        assert subst_ftype(ty, "a", FInt()) == ty

    def test_capture_avoidance_renames(self):
        # (mu b. a)[b/a] must not capture: the bound b gets renamed.
        ty = FRec("b", FTVar("a"))
        result = subst_ftype(ty, "a", FTVar("b"))
        assert isinstance(result, FRec)
        assert result.var != "b"
        assert result.body == FTVar("b")

    def test_unroll_is_substitution(self):
        mu = FRec("a", FArrow((FTVar("a"),), FInt()))
        unrolled = mu.unroll()
        assert unrolled == FArrow((mu,), FInt())


class TestFtypeEqual:
    def test_alpha_equivalent_mus(self):
        left = FRec("a", FArrow((FTVar("a"),), FInt()))
        right = FRec("b", FArrow((FTVar("b"),), FInt()))
        assert ftype_equal(left, right)

    def test_structurally_different(self):
        assert not ftype_equal(FInt(), FUnit())

    def test_arity_mismatch(self):
        assert not ftype_equal(FArrow((FInt(),), FInt()),
                               FArrow((FInt(), FInt()), FInt()))

    def test_free_vars_compare_by_name(self):
        assert ftype_equal(FTVar("a"), FTVar("a"))
        assert not ftype_equal(FTVar("a"), FTVar("b"))

    def test_nested_binders(self):
        left = FRec("a", FRec("b", FTupleT((FTVar("a"), FTVar("b")))))
        right = FRec("x", FRec("y", FTupleT((FTVar("x"), FTVar("y")))))
        assert ftype_equal(left, right)

    def test_swapped_binders_not_equal(self):
        left = FRec("a", FRec("b", FTupleT((FTVar("a"), FTVar("b")))))
        right = FRec("a", FRec("b", FTupleT((FTVar("b"), FTVar("a")))))
        assert not ftype_equal(left, right)


class TestValues:
    def test_literals_are_values(self):
        assert is_value(UnitE())
        assert is_value(IntE(3))
        assert is_value(Lam((("x", FInt()),), Var("x")))

    def test_fold_of_value(self):
        mu = FRec("a", FInt())
        assert is_value(Fold(mu, IntE(1)))
        assert not is_value(Fold(mu, BinOp("+", IntE(1), IntE(1))))

    def test_tuple_of_values(self):
        assert is_value(TupleE((IntE(1), UnitE())))
        assert not is_value(TupleE((IntE(1), Var("x"))))

    def test_redexes_are_not_values(self):
        assert not is_value(BinOp("+", IntE(1), IntE(2)))
        assert not is_value(App(Lam((("x", FInt()),), Var("x")),
                                (IntE(1),)))
        assert not is_value(Unfold(Fold(FRec("a", FInt()), IntE(1))))


class TestFreeVars:
    def test_var(self):
        assert free_vars(Var("x")) == {"x"}

    def test_lambda_binds(self):
        lam = Lam((("x", FInt()),), BinOp("+", Var("x"), Var("y")))
        assert free_vars(lam) == {"y"}

    def test_multi_param_binds_all(self):
        lam = Lam((("x", FInt()), ("y", FInt())),
                  BinOp("+", Var("x"), Var("y")))
        assert free_vars(lam) == set()

    def test_app_collects(self):
        assert free_vars(App(Var("f"), (Var("a"), Var("b")))) == \
            {"f", "a", "b"}

    def test_if0_collects(self):
        assert free_vars(If0(Var("c"), Var("t"), Var("e"))) == \
            {"c", "t", "e"}


class TestSubstExpr:
    def test_basic(self):
        assert subst_expr(Var("x"), {"x": IntE(1)}) == IntE(1)

    def test_shadowing(self):
        lam = Lam((("x", FInt()),), Var("x"))
        assert subst_expr(lam, {"x": IntE(1)}) == lam

    def test_capture_avoidance(self):
        # (lam(y). x)[y/x]: the binder y must be renamed, not capture.
        lam = Lam((("y", FInt()),), Var("x"))
        result = subst_expr(lam, {"x": Var("y")})
        assert isinstance(result, Lam)
        (name, _), = result.params
        assert name != "y"
        assert result.body == Var("y")

    def test_descends_everywhere(self):
        e = If0(Var("x"), TupleE((Var("x"),)), Proj(0, Var("x")))
        out = subst_expr(e, {"x": IntE(0)})
        assert free_vars(out) == set()

    def test_invalid_binop_rejected(self):
        with pytest.raises(ValueError):
            BinOp("/", IntE(1), IntE(2))


class TestIterSubexprs:
    def test_counts_nodes(self):
        e = BinOp("+", IntE(1), BinOp("*", IntE(2), IntE(3)))
        assert len(list(iter_subexprs(e))) == 5

    def test_includes_lambda_bodies(self):
        e = Lam((("x", FInt()),), Var("x"))
        assert Var("x") in list(iter_subexprs(e))
