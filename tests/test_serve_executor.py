"""Tests for the worker-side job executor (in-process, no pool).

Includes the fuel-exhaustion paths across all three machines: a pure-F
omega (via ``mu``/``fold``), a pure-T spin loop, and an FT program whose
budget runs out inside a boundary -- the serving layer must fold each
into a ``fuel_exhausted`` result rather than an exception.
"""

import pytest

from repro.serve.executor import execute_job
from repro.serve.protocol import Job, JobOptions

# A diverging program per machine (all surface syntax).
OMEGA_F = ("(lam (f: mu a. (a) -> int). (unfold (f)) (f)) "
           "(fold[mu a. (a) -> int] "
           "(lam (f: mu a. (a) -> int). (unfold (f)) (f)))")
SPIN_T = "(jmp spin, {spin -> code[]{.; nil} end{int; nil}. jmp spin})"
SPIN_FT = f"(1 + FT[int] {SPIN_T})"


class TestHappyPaths:
    def test_run_expression(self):
        result = execute_job(Job("run", id="j", source="((2 + 3) * 10)"))
        assert result.ok
        assert result.output["value"] == "50"
        assert result.output["steps"] >= 1
        assert result.duration_ms > 0
        assert result.worker is not None

    def test_run_component(self):
        result = execute_job(Job(
            "run", source="(mv r1, 7; halt int, nil {r1}, .)"))
        assert result.ok and result.output["halted"] == "7"

    def test_run_example(self):
        result = execute_job(Job("run", example="fig17"))
        assert result.ok and result.output["value"] == "<720, 720>"

    def test_run_with_trace(self):
        result = execute_job(Job("run", example="fig17",
                                 options=JobOptions(trace=True)))
        assert result.ok and "control flow" in result.output["control_flow"]

    def test_parse(self):
        result = execute_job(Job("parse", source="(1 + 2)"))
        assert result.ok and result.output["node"] == "expression"

    def test_typecheck_expression(self):
        result = execute_job(Job("typecheck",
                                 source="lam (x: int). (x + 1)"))
        assert result.ok and result.output["type"] == "(int) -> int"

    def test_typecheck_component_result_type(self):
        result = execute_job(Job(
            "typecheck", source="(mv r1, (); halt unit, nil {r1}, .)",
            options=JobOptions(result_type="unit")))
        assert result.ok and result.output["type"] == "unit"

    def test_compile_lambda(self):
        result = execute_job(Job("compile", source="lam (x: int). (x + 1)"))
        assert result.ok
        assert result.output["blocks"] >= 1
        assert "ret ra" in result.output["assembly"]

    def test_degraded_jit_run_stays_on_the_interpreter(self):
        """``degraded`` (stamped by the pool while the jit breaker is
        open) answers a ``jit`` run on the interpreter: same value, no
        compiled tier, and the result says so."""
        src = "((lam (x: int). ((x * x) + 1)) (20))"
        jitted = execute_job(Job("run", source=src,
                                 options=JobOptions(jit=True)))
        degraded = execute_job(Job("run", source=src, options=JobOptions(
            jit=True, degraded=True)))
        assert jitted.output["tier"]["compile_tier"] is not None
        assert degraded.output["value"] == jitted.output["value"] == "401"
        assert degraded.output["degraded"] is True
        assert "jit" not in degraded.output
        assert degraded.output["tier"] == {
            "f_engine": "cek", "compile_tier": None, "tal_engine": "fast"}

    def test_compile_validate(self):
        """Translation validation includes the bounded-equivalence
        obligation the JIT discharges."""
        result = execute_job(Job(
            "compile", source="lam (x: int). (x * 2)",
            options=JobOptions(validate=True, fuel=5_000)))
        assert result.ok and result.output["validation"]["equivalent"]

    def test_equiv(self):
        result = execute_job(Job(
            "equiv", source="lam (x: int). (x + x)",
            options=JobOptions(right="lam (x: int). (x * 2)",
                               type="(int) -> int", fuel=5_000)))
        assert result.ok and result.output["equivalent"] is True

    def test_equiv_refuted(self):
        result = execute_job(Job(
            "equiv", source="lam (x: int). (x + 1)",
            options=JobOptions(right="lam (x: int). (x + 2)",
                               type="(int) -> int", fuel=5_000)))
        assert result.ok and result.output["equivalent"] is False


class TestFuelExhaustion:
    """One diverging program per machine; all must fold into a result."""

    @pytest.mark.parametrize("name,source", [
        ("f", OMEGA_F), ("t", SPIN_T), ("ft", SPIN_FT)])
    def test_divergence_reports_fuel_exhausted(self, name, source):
        result = execute_job(Job("run", id=name, source=source,
                                 options=JobOptions(fuel=2_000)))
        assert result.status == "fuel_exhausted"
        assert result.error_type == "FuelExhausted"
        assert result.output["fuel"] == 2_000
        assert "2000 steps" in result.error

    def test_fuel_exhausted_is_not_ok(self):
        result = execute_job(Job("run", source=SPIN_T,
                                 options=JobOptions(fuel=100)))
        assert not result.ok


class TestErrorsAreFolded:
    def test_parse_error(self):
        result = execute_job(Job("typecheck", source="lam (x:"))
        assert result.status == "error" and result.error

    def test_type_error(self):
        result = execute_job(Job("typecheck", source="(1 + ())"))
        assert result.status == "error"

    def test_unknown_example(self):
        result = execute_job(Job("run", example="nope"))
        assert result.status == "error" and "nope" in result.error

    def test_uncompilable_compile(self):
        result = execute_job(Job("compile", example="fact-t"))
        assert result.status == "error"
        assert "not a compilable F term" in result.error
