"""JIT safety-net tests (:mod:`repro.resilience.safety_net`).

The differential guard's contract: a caller of :func:`run_guarded` can
never observe a jit-induced failure or wrong answer.  Faults (including
injected chaos faults) fall back to the interpreter; the offending
lambdas land in the :class:`Quarantine` circuit breaker and are never
re-jitted.  Resource exhaustion is a verdict, not a fault, and
propagates unchanged.
"""

import pytest

from repro.errors import FuelExhausted, InjectedFault
from repro.ft.machine import evaluate_ft
from repro.compile import clear_compile_cache
from repro.papers_examples import resolve_example
from repro.resilience.chaos import FaultPlane
from repro.resilience.safety_net import (
    QUARANTINE, Quarantine, SafetyNetReport, jit_rewrite_guarded,
    run_guarded,
)


@pytest.fixture(autouse=True)
def _fresh_compile_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def _jit_source():
    _, build = resolve_example("jit-source")
    return build()


def _reference():
    value, _ = evaluate_ft(_jit_source())
    return str(value)


class TestCleanPath:
    def test_guarded_run_matches_interpreter(self):
        q = Quarantine()
        value, _, report = run_guarded(_jit_source(), quarantine=q)
        assert str(value) == _reference()
        assert report.jitted == 1
        assert not report.fell_back
        assert len(q) == 0

    def test_uncompilable_program_skips_the_guard(self):
        _, build = resolve_example("fact-f")
        expected, _ = evaluate_ft(build())
        value, _, report = run_guarded(build(), quarantine=Quarantine())
        assert str(value) == str(expected)
        assert report.jitted == 0


class TestCompileFaults:
    def test_compile_fault_quarantines_and_interprets(self):
        q = Quarantine()
        with FaultPlane(seed=1, rate=1.0, seams=["jit.compile"]):
            value, _, report = run_guarded(_jit_source(), quarantine=q)
        assert str(value) == _reference()    # identical result
        assert report.jitted == 0
        assert len(q) == 1
        assert "compile fault" in q.reasons()[0][1]

    def test_rewrite_alone_reports_the_quarantined_lambda(self):
        q = Quarantine()
        with FaultPlane(seed=1, rate=1.0, seams=["jit.compile"]):
            rewritten, compiled, report = jit_rewrite_guarded(
                _jit_source(), q)
        assert compiled == []
        assert len(report.quarantined) == 1


class TestRunFaults:
    def test_run_fault_falls_back_with_identical_result(self):
        q = Quarantine()
        with FaultPlane(seed=2, rate=1.0, seams=["jit.run"]):
            value, _, report = run_guarded(_jit_source(), quarantine=q)
        assert str(value) == _reference()
        assert report.fell_back
        assert report.fault and "InjectedFault" in report.fault
        assert len(q) == 1               # every compiled source quarantined

    def test_quarantined_lambda_is_never_rejitted(self):
        q = Quarantine()
        with FaultPlane(seed=2, rate=1.0, seams=["jit.run"]):
            run_guarded(_jit_source(), quarantine=q)
        # Second run, no fault plane: the breaker keeps it interpreted.
        value, _, report = run_guarded(_jit_source(), quarantine=q)
        assert str(value) == _reference()
        assert report.jitted == 0
        assert report.skipped == 1
        assert q.hits == 1

    def test_interpreter_fault_propagates(self):
        # A fault outside jitted code is NOT the JIT's to absorb: with
        # no compiled lambda in the program the guard never re-runs.
        _, build = resolve_example("fact-t")
        with FaultPlane(seed=1, rate=1.0, seams=["heap.alloc"]):
            with pytest.raises(InjectedFault):
                run_guarded(build(), quarantine=Quarantine())


class TestResourceExhaustionIsAVerdict:
    def test_fuel_exhaustion_propagates_not_falls_back(self):
        q = Quarantine()
        with pytest.raises(FuelExhausted):
            run_guarded(_jit_source(), fuel=1, quarantine=q)
        assert len(q) == 0               # nothing quarantined


class TestQuarantine:
    def test_add_is_idempotent(self):
        from repro.f.syntax import BinOp, FInt, IntE, Lam, Var

        q = Quarantine()
        lam = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
        q.add(lam, "first")
        q.add(lam, "second")
        assert len(q) == 1
        assert q.reasons()[0][1] == "first"

    def test_stats_shape(self):
        q = Quarantine()
        stats = q.stats()
        assert stats == {"size": 0, "hits": 0, "entries": []}

    def test_clear(self):
        from repro.f.syntax import BinOp, FInt, IntE, Lam, Var

        q = Quarantine()
        q.add(Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1))), "x")
        q.skip(next(iter(q._entries)))
        q.clear()
        assert len(q) == 0 and q.hits == 0

    def test_module_quarantine_surfaces_in_stats_cli(self, capsys):
        import json

        from repro.cli import main

        QUARANTINE.clear()
        try:
            with FaultPlane(seed=2, rate=1.0, seams=["jit.run"]):
                run_guarded(_jit_source())    # default quarantine
            assert main(["stats", "--json"]) == 0
            snapshot = json.loads(capsys.readouterr().out)
            assert snapshot["jit_quarantine"]["size"] == 1
        finally:
            QUARANTINE.clear()

    def test_report_json_shape(self):
        report = SafetyNetReport(jitted=2, skipped=1, fell_back=True,
                                 fault="boom", quarantined=("l",))
        assert report.to_json() == {
            "jitted": 2, "skipped": 1, "fell_back": True,
            "fault": "boom", "quarantined": ["l"]}
