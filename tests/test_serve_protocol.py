"""Tests for the ``repro.serve`` wire protocol dataclasses."""

import pytest

from repro.serve.protocol import (
    JOB_KINDS, Job, JobOptions, JobResult, ProtocolError, decode_line,
    encode_line, jobs_from_jsonl,
)


class TestJob:
    def test_roundtrip_minimal(self):
        job = Job("run", id="j1", source="(1 + 2)")
        assert Job.from_dict(job.to_dict()) == job

    def test_roundtrip_with_options(self):
        job = Job("equiv", id="e", source="lam (x: int). (x + x)",
                  options=JobOptions(right="lam (x: int). (x * 2)",
                                     type="(int) -> int", fuel=5000,
                                     seed=7))
        again = Job.from_dict(job.to_dict())
        assert again == job
        assert again.options.seed == 7

    def test_default_options_stay_off_the_wire(self):
        job = Job("run", source="(1 + 2)")
        assert "options" not in job.to_dict()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            Job("transpile", source="x")

    def test_jit_kind_refused(self):
        """The JIT's lambdas compile through ``compile`` jobs: the wire
        refuses a ``jit`` kind and lists the kinds there are."""
        with pytest.raises(ProtocolError) as err:
            Job.from_dict({"kind": "jit", "source": "lam (x: int). x"})
        assert "'jit'" in str(err.value)
        assert ", ".join(JOB_KINDS) in str(err.value)

    def test_source_xor_example(self):
        with pytest.raises(ProtocolError):
            Job("run")
        with pytest.raises(ProtocolError):
            Job("run", source="(1 + 1)", example="fig17")

    def test_equiv_requires_right_and_type(self):
        with pytest.raises(ProtocolError):
            Job("equiv", source="(1 + 1)")
        with pytest.raises(ProtocolError):
            Job("equiv", source="(1 + 1)",
                options=JobOptions(right="(2 + 0)"))

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError):
            Job.from_dict({"kind": "run", "source": "x", "srouce": "typo"})

    def test_unknown_option_rejected(self):
        with pytest.raises(ProtocolError):
            Job.from_dict({"kind": "run", "source": "x",
                           "options": {"feul": 10}})

    def test_fault_never_travels_on_the_wire(self):
        from repro.resilience.chaos import Fault

        job = Job("run", source="(1 + 1)", fault=Fault("crash"))
        assert "fault" not in job.to_dict()
        with pytest.raises(ProtocolError):
            Job.from_dict({"kind": "run", "source": "(1 + 1)",
                           "fault": {"kind": "crash"}})

    def test_unknown_fault_kind_rejected(self):
        from repro.resilience.chaos import Fault

        with pytest.raises(ValueError):
            Fault("explode")

    def test_every_kind_constructs(self):
        for kind in JOB_KINDS:
            opts = JobOptions(right="y", type="int") if kind == "equiv" \
                else JobOptions()
            if kind == "resume":
                Job(kind, snapshot={"kind": "ft", "digest": "x", "data": ""},
                    options=opts)
            else:
                Job(kind, source="x", options=opts)


class TestJobOptions:
    def test_semantic_dict_excludes_operational_knobs(self):
        opts = JobOptions(fuel=100, timeout=2.5, no_cache=True)
        assert opts.semantic_dict() == {"fuel": 100}

    def test_wire_dict_keeps_operational_knobs(self):
        opts = JobOptions(timeout=2.5)
        assert opts.to_dict() == {"timeout": 2.5}


class TestJobResult:
    def test_roundtrip(self):
        result = JobResult(id="j1", kind="run", status="ok",
                           output={"value": "5"}, attempts=2,
                           duration_ms=1.25, worker=4242)
        assert JobResult.from_dict(result.to_dict()) == result

    def test_error_fields_elided_when_clean(self):
        out = JobResult(id="j", kind="run", status="ok").to_dict()
        assert "error" not in out and "error_type" not in out
        assert "worker" not in out

    def test_unknown_status_rejected(self):
        with pytest.raises(ProtocolError):
            JobResult.from_dict({"id": "j", "kind": "run",
                                 "status": "exploded"})

    def test_ok_property(self):
        assert JobResult(id="j", kind="run", status="ok").ok
        assert not JobResult(id="j", kind="run", status="timeout").ok

    def test_failure_constructor(self):
        job = Job("run", id="j9", source="x")
        result = JobResult.failure(job, "crashed", "boom", attempts=3)
        assert (result.id, result.status, result.attempts) == \
            ("j9", "crashed", 3)
        assert result.error_type == "crashed"


class TestWireFormat:
    def test_encode_decode(self):
        line = encode_line({"kind": "run", "id": "a"})
        assert line.endswith(b"\n")
        assert decode_line(line) == {"kind": "run", "id": "a"}

    def test_encode_is_canonical(self):
        a = encode_line({"b": 1, "a": 2})
        b = encode_line({"a": 2, "b": 1})
        assert a == b

    def test_decode_rejects_junk(self):
        with pytest.raises(ProtocolError):
            decode_line(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2, 3]\n")


class TestJsonlBatch:
    def test_parses_with_comments_and_blanks(self):
        text = "\n".join([
            '# a comment',
            '{"kind": "run", "source": "(1 + 1)"}',
            '',
            '{"kind": "parse", "id": "named", "example": "fig17"}',
        ])
        jobs = jobs_from_jsonl(text)
        assert [j.kind for j in jobs] == ["run", "parse"]
        assert jobs[0].id == "job-2"       # auto id carries the line number
        assert jobs[1].id == "named"

    def test_bad_line_reports_line_number(self):
        with pytest.raises(ProtocolError, match="line 2"):
            jobs_from_jsonl('{"kind": "run", "source": "x"}\n{"kind": "?"}')


def _executor_results():
    """One result per executor job kind, plus the failure statuses and
    the optional fields (``worker``, ``obs``, a cached hit)."""
    from repro.serve.executor import execute_job

    manifest = ('{"components": {"double": "lam (x: int). (x + x)"}, '
                '"main": "double 21"}')
    jobs = [
        Job("parse", source="(1 + 2)"),
        Job("typecheck", source="lam (x: int). (x + 1)"),
        Job("run", source="((2 + 3) * 10)"),
        Job("run", example="fig17", options=JobOptions(trace=True)),
        Job("run", source="((lam (x: int). ((x * x) + 1)) (20))",
            options=JobOptions(jit=True)),
        Job("compile", example="fact-f", options=JobOptions(validate=True)),
        Job("equiv", source="lam (x: int). (x + x)",
            options=JobOptions(right="lam (x: int). (x * 2)",
                               type="(int) -> int", fuel=5_000)),
        Job("link", source=manifest),
        Job("run", source="(1 +"),
        Job("run", example="fact-f", options=JobOptions(fuel=10)),
    ]
    results = [execute_job(job) for job in jobs]
    suspended = execute_job(Job("run", example="fact-f", options=JobOptions(
        fuel=10, checkpoint=True)))
    results.append(suspended)
    results.append(execute_job(Job(
        "resume", snapshot=suspended.output["snapshot"],
        options=JobOptions(fuel=1_000_000))))
    results.append(JobResult.failure(jobs[0], "timeout", "too slow"))
    results.append(JobResult(id="c", kind="run", status="ok",
                             output={"value": "1", "tier": {"f": "cek"}},
                             cached=True, worker=7,
                             obs={"pid": 7, "events": [{"k": 1}]}))
    return results


class TestToDictMatchesAsdict:
    """``JobResult.to_dict`` builds its dict by hand; it must read the
    same as the ``dataclasses.asdict`` form it replaces."""

    @staticmethod
    def _asdict_form(result):
        from dataclasses import asdict

        out = asdict(result)
        if result.worker is None:
            del out["worker"]
        if result.obs is None:
            del out["obs"]
        if not result.error:
            del out["error"]
            del out["error_type"]
        return out

    def test_every_result_kind(self):
        results = _executor_results()
        statuses = {r.status for r in results}
        assert {"ok", "error", "fuel_exhausted", "suspended",
                "timeout"} <= statuses
        for result in results:
            wire = result.to_dict()
            assert wire == self._asdict_form(result), result.kind
            assert list(wire) == list(self._asdict_form(result))
            assert JobResult.from_dict(wire) == result

    def test_top_level_and_output_are_fresh(self):
        result = JobResult(id="j", kind="run", status="ok",
                           output={"value": "5"})
        wire = result.to_dict()
        wire["output"]["value"] = "6"
        wire["status"] = "error"
        assert result.output == {"value": "5"} and result.status == "ok"
