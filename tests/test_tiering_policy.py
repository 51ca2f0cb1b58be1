"""Tests for :mod:`repro.tiering.policy` -- the unified promotion knobs.

Every promotion knob is a field of one :class:`TieringPolicy` with
documented precedence ``env < config < cli``; the mode also sets the
JIT's scope (``aggressive`` widens it to every closed lambda).
"""

import dataclasses

import pytest

from repro.compile.pipeline import compile_term, jit_rewrite
from repro.f.syntax import App, BinOp, FArrow, FInt, IntE, Lam, Var
from repro.ft.machine import evaluate_ft
from repro.tiering.policy import (
    TIERING_MODES, TieringPolicy, active_policy, set_active_policy,
)


@pytest.fixture(autouse=True)
def _restore_active_policy():
    yield
    set_active_policy(None)


class TestPolicyBasics:
    def test_default_is_off(self):
        policy = TieringPolicy()
        assert policy.mode == "off"
        assert not policy.enabled

    def test_modes_enumerated(self):
        assert TIERING_MODES == ("off", "auto", "aggressive")
        for mode in TIERING_MODES:
            assert TieringPolicy(mode=mode).mode == mode

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            TieringPolicy(mode="turbo")

    @pytest.mark.parametrize("field,value", [
        ("promote_threshold", 0),
        ("tal_jit_threshold", 0),
        ("max_inflight_promotions", 0),
        ("demote_after", 0),
    ])
    def test_bad_thresholds_rejected(self, field, value):
        with pytest.raises(ValueError):
            TieringPolicy(**{field: value})

    def test_frozen(self):
        policy = TieringPolicy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.mode = "auto"

    def test_effective_threshold_hysteresis(self):
        assert TieringPolicy(
            mode="auto", promote_threshold=1000).effective_threshold() \
            == 1000
        assert TieringPolicy(
            mode="aggressive",
            promote_threshold=1000).effective_threshold() == 100
        # Never collapses to zero.
        assert TieringPolicy(
            mode="aggressive", promote_threshold=5).effective_threshold() \
            == 1

    def test_wide_jit_by_mode(self):
        assert not TieringPolicy(mode="off").wide_jit
        assert not TieringPolicy(mode="auto").wide_jit
        assert TieringPolicy(mode="aggressive").wide_jit

    def test_to_dict_round_trips(self):
        policy = TieringPolicy(mode="auto", tal_promote=("aa", "bb"))
        as_dict = policy.to_dict()
        assert as_dict["tal_promote"] == ["aa", "bb"]
        as_dict["tal_promote"] = tuple(as_dict["tal_promote"])
        assert TieringPolicy(**as_dict) == policy


class TestEnvResolution:
    def test_from_env_reads_new_spellings(self):
        policy = TieringPolicy.from_env({
            "FUNTAL_TIERING": "auto",
            "FUNTAL_TIERING_THRESHOLD": "123",
            "FUNTAL_TIERING_TAL_JIT_THRESHOLD": "7",
            "FUNTAL_TIERING_PROMOTE": "aa, bb",
            "FUNTAL_TIERING_STORE": "/tmp/s",
        })
        assert policy.mode == "auto"
        assert policy.promote_threshold == 123
        assert policy.tal_jit_threshold == 7
        assert policy.tal_promote == ("aa", "bb")
        assert policy.store == "/tmp/s"

    def test_env_fields_audited(self):
        # Every env var maps to a real policy field.
        names = {f.name for f in dataclasses.fields(TieringPolicy)}
        for var, (target, parse) in TieringPolicy.ENV_FIELDS.items():
            assert var.startswith("FUNTAL_TIERING")
            assert target in names
            assert callable(parse)

    def test_bad_env_value_is_structured(self):
        with pytest.raises(ValueError, match="FUNTAL_TIERING_THRESHOLD"):
            TieringPolicy.from_env({"FUNTAL_TIERING_THRESHOLD": "lots"})

    def test_resolve_precedence_env_config_cli(self):
        env = {"FUNTAL_TIERING": "auto",
               "FUNTAL_TIERING_THRESHOLD": "100"}
        config = {"promote_threshold": 200, "tal_jit_threshold": 5}
        cli = {"promote_threshold": 300, "mode": None}
        policy = TieringPolicy.resolve(env, config, cli)
        assert policy.mode == "auto"            # env (cli None ignored)
        assert policy.promote_threshold == 300  # cli beats config
        assert policy.tal_jit_threshold == 5    # config beats env default

    def test_resolve_ignores_none_layers(self):
        policy = TieringPolicy.resolve({}, None, {"mode": None})
        assert policy == TieringPolicy()


class TestActivePolicy:
    def test_set_and_clear(self):
        policy = TieringPolicy(mode="auto")
        set_active_policy(policy)
        assert active_policy() is policy
        set_active_policy(None)
        assert active_policy().mode in TIERING_MODES

    def test_env_derived_when_unset(self, monkeypatch):
        set_active_policy(None)
        monkeypatch.setenv("FUNTAL_TIERING", "aggressive")
        assert active_policy().mode == "aggressive"
        monkeypatch.delenv("FUNTAL_TIERING")
        assert active_policy().mode == "off"


INC = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
APPLY5 = Lam((("g", FArrow((FInt(),), FInt())),),
             App(Var("g"), (IntE(5),)))
PROGRAM = App(APPLY5, (INC,))


class TestJitScope:
    def test_jit_rewrite_follows_policy(self):
        set_active_policy(TieringPolicy(mode="auto"))
        narrow = jit_rewrite(PROGRAM)
        assert "FT[(int) -> int]" in str(narrow)
        assert "FT[((int) -> int) -> int]" not in str(narrow)
        set_active_policy(TieringPolicy(mode="aggressive"))
        wide = jit_rewrite(PROGRAM)
        assert "FT[((int) -> int) -> int]" in str(wide)
        for rewritten in (narrow, wide):
            assert evaluate_ft(rewritten)[0] == IntE(6)

    def test_explicit_scope_overrides_policy(self):
        set_active_policy(TieringPolicy(mode="aggressive"))
        assert "FT[((int) -> int) -> int]" not in str(
            jit_rewrite(PROGRAM, wide=False))
        set_active_policy(TieringPolicy(mode="off"))
        assert "FT[((int) -> int) -> int]" in str(
            jit_rewrite(PROGRAM, wide=True))

    def test_compile_ignores_the_mode(self):
        set_active_policy(TieringPolicy(mode="off"))
        result = compile_term(APPLY5)
        assert evaluate_ft(App(result.wrapped, (INC,)))[0] == IntE(6)

    def test_removed_env_spellings_are_ignored(self):
        policy = TieringPolicy.from_env({"FUNTAL_TAL_JIT_THRESHOLD": "3",
                                         "FUNTAL_TAL_PROMOTE": "cc"})
        assert policy == TieringPolicy()
