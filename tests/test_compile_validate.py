"""Translation validation and the serve layer's ``compile`` job kind.

The validator's contract: a correct artifact passes all three axes
(typecheck, differential execution, bounded contextual equivalence); a
miscompiled artifact fails, reports the disagreement, and quarantines
the source lambda through the resilience safety net; open compilations
get the static axis only.  The serve tests pin the job-kind surface:
semantic options (``validate``/``ir``) feed the content
address, component inputs fail cleanly, and validation failures come
back as job errors rather than worker crashes.
"""

import pytest

from repro.f.syntax import (
    App, BinOp, FArrow, FInt, IntE, Lam, TupleE, Var,
)
from repro.compile.pipeline import CompilationResult, compile_term
from repro.compile import validate
from repro.compile.validate import validate_compilation
from repro.resilience.safety_net import Quarantine
from repro.serve.cache import job_cache_key
from repro.serve.executor import execute_job
from repro.serve.protocol import Job, JobOptions, ProtocolError

INC = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
INC2 = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(2)))


def _forged_result() -> CompilationResult:
    """A deliberately miscompiled artifact: the source computes ``x+1``
    but the installed component computes ``x+2``."""
    wrong = compile_term(INC2)
    return CompilationResult(
        source=INC, ty=wrong.ty, wrapped=wrong.wrapped,
        component=wrong.component, clos=wrong.clos)


class TestValidationPasses:
    def test_arith_lambda(self):
        report = validate_compilation(INC, quarantine=Quarantine())
        assert report.ok and report.typechecked
        assert report.trials >= 1
        assert report.equiv is not None and report.equiv.equivalent

    def test_general_lambda(self):
        ho = Lam((("g", FArrow((FInt(),), FInt())),),
                 App(Var("g"), (IntE(5),)))
        report = validate_compilation(ho, quarantine=Quarantine())
        assert report.ok and report.typechecked
        assert report.trials >= 1

    def test_non_function_expression(self):
        report = validate_compilation(
            BinOp("*", IntE(6), IntE(7)), quarantine=Quarantine())
        assert report.ok
        assert report.trials == 1     # single whole-program observation

    @pytest.mark.parametrize("term, contexts", [
        (BinOp("*", IntE(6), IntE(7)), 1),             # identity
        (TupleE((IntE(1), BinOp("+", IntE(2), IntE(3)))), 3),  # + proj0/1
    ])
    def test_first_order_pair_is_observed_once(self, term, contexts,
                                               monkeypatch):
        """The identity context plugs exactly the (source, compiled)
        pair the differential axis already observed: its observation is
        reused, and the report still counts the context."""
        calls = []
        real = validate.observe

        def counted(expr, **kwargs):
            calls.append(expr)
            return real(expr, **kwargs)

        monkeypatch.setattr(validate, "observe", counted)
        report = validate_compilation(term, quarantine=Quarantine())
        assert report.to_json() == {
            "ok": True, "typechecked": True, "trials": 1,
            "equivalent": True, "equiv_trials": contexts,
            "failure": None, "quarantined": False}
        assert len(calls) == 2 * contexts   # not 2 * (1 + contexts)

    def test_open_term_is_static_only(self):
        report = validate_compilation(
            BinOp("+", Var("y"), IntE(1)), gamma={"y": FInt()},
            quarantine=Quarantine())
        assert report.ok and report.typechecked
        assert report.trials == 0 and report.equiv is None

    def test_report_json_and_str(self):
        report = validate_compilation(INC, quarantine=Quarantine())
        data = report.to_json()
        assert data["ok"] is True and "tier" not in data
        assert data["equivalent"] is True
        assert "validated" in str(report)


class TestValidationCatchesMiscompiles:
    def test_forged_artifact_fails_and_quarantines(self):
        q = Quarantine()
        report = validate_compilation(_forged_result(), quarantine=q)
        assert not report.ok
        assert report.typechecked        # the wrong artifact still types
        assert "disagreement" in report.failure
        assert report.disagreements
        assert report.quarantined and INC in q

    def test_quarantine_blocks_later_jit_installs(self):
        from repro.resilience.safety_net import jit_rewrite_guarded

        q = Quarantine()
        validate_compilation(_forged_result(), quarantine=q)
        rewritten, compiled, report = jit_rewrite_guarded(INC, q)
        assert report.skipped == 1 and report.jitted == 0
        assert compiled == []

    def test_validation_failure_does_not_raise(self):
        report = validate_compilation(_forged_result(),
                                      quarantine=Quarantine())
        assert "VALIDATION FAILED" in str(report)
        assert report.to_json()["ok"] is False


class TestServeCompileJobs:
    def test_compile_example(self):
        result = execute_job(Job(kind="compile", example="fact-f",
                                 id="t1"))
        assert result.status == "ok"
        assert "tier" not in result.output
        assert result.output["blocks"] >= 2
        # the payload is the bare T component (its import thunks may
        # themselves mention FT boundaries for materialized closures)
        assert "halt" in result.output["assembly"]

    def test_compile_inline_with_validation_and_ir(self):
        result = execute_job(Job(
            kind="compile", source="lam (x:int). x + 1", id="t2",
            options=JobOptions(validate=True, ir=True)))
        assert result.status == "ok"
        assert result.output["validation"]["ok"] is True
        assert result.output["ir"]

    def test_forced_tier(self):
        """One compiler: ``tier`` is now an unknown job option."""
        with pytest.raises(ProtocolError, match="tier"):
            Job.from_dict({"kind": "compile", "source": "lam (x:int). x",
                           "options": {"tier": "general"}})

    def test_component_input_is_a_clean_error(self):
        result = execute_job(Job(kind="compile", example="two-blocks-1",
                                 id="t4"))
        assert result.status == "error"
        assert result.error

    def test_semantic_options_fragment_the_cache_key(self):
        base = Job(kind="compile", example="fact-f")
        keys = {
            job_cache_key(base),
            job_cache_key(Job(kind="compile", example="fact-f",
                              options=JobOptions(validate=True))),
            job_cache_key(Job(kind="compile", example="fact-f",
                              options=JobOptions(ir=True))),
        }
        assert len(keys) == 3

    def test_compile_kind_is_registered(self):
        from repro.serve.protocol import JOB_KINDS

        assert "compile" in JOB_KINDS
