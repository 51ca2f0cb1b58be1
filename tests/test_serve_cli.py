"""CLI tests for the serving layer: funtal batch / submit / serve."""

import json

import pytest

from repro.cli import EXIT_FUEL_EXHAUSTED, EXIT_JOB_FAILED, main


@pytest.fixture
def jobs_file(tmp_path):
    def write(lines, name="jobs.jsonl"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    return write


class TestBatch:
    def test_examples_batch_all_ok(self, capsys):
        assert main(["batch", "--examples", "--workers", "2"]) == 0
        captured = capsys.readouterr()
        results = [json.loads(line) for line in
                   captured.out.strip().splitlines()]
        assert results and all(r["status"] == "ok" for r in results)
        summary = json.loads(captured.err.split("batch: ", 1)[1])
        assert summary["failed"] == 0
        assert summary["jobs"] == len(results)

    def test_jsonl_file(self, jobs_file, capsys):
        path = jobs_file([
            '{"kind": "run", "id": "a", "source": "(2 + 3)"}',
            '{"kind": "typecheck", "id": "b", '
            '"source": "lam (x: int). (x + 1)"}',
        ])
        assert main(["batch", path, "--workers", "1"]) == 0
        results = {r["id"]: r for r in
                   (json.loads(line) for line in
                    capsys.readouterr().out.strip().splitlines())}
        assert results["a"]["output"]["value"] == "5"
        assert results["b"]["output"]["type"] == "(int) -> int"

    def test_failed_job_sets_exit_code(self, jobs_file, capsys):
        path = jobs_file([
            '{"kind": "run", "id": "good", "source": "(1 + 1)"}',
            '{"kind": "typecheck", "id": "bad", "source": "(1 + ())"}',
        ])
        assert main(["batch", path, "--workers", "1"]) == EXIT_JOB_FAILED
        summary = json.loads(
            capsys.readouterr().err.split("batch: ", 1)[1])
        assert summary == {**summary, "ok": 1, "failed": 1}

    def test_jit_kind_line_fails_cleanly(self, jobs_file, capsys):
        path = jobs_file(['{"kind": "jit", "source": "lam (x: int). x"}'])
        assert main(["batch", path, "--workers", "1"]) != 0
        err = capsys.readouterr().err
        assert "unknown job kind 'jit'" in err
        assert "Traceback" not in err

    def test_out_file(self, jobs_file, tmp_path, capsys):
        path = jobs_file(['{"kind": "run", "source": "(4 + 4)"}'])
        out = str(tmp_path / "results.jsonl")
        assert main(["batch", path, "--workers", "1", "--out", out]) == 0
        lines = open(out).read().strip().splitlines()
        assert json.loads(lines[0])["output"]["value"] == "8"
        assert capsys.readouterr().out == ""       # stdout stays clean

    def test_repeat_hits_the_cache(self, capsys):
        assert main(["batch", "--examples", "--repeat", "2",
                     "--workers", "2"]) == 0
        summary = json.loads(
            capsys.readouterr().err.split("batch: ", 1)[1])
        # the second round is identical, so at least half the second
        # round's jobs must be cache hits (in practice all of them)
        assert summary["cached"] >= summary["jobs"] // 4

    def test_no_file_and_no_examples_is_an_error(self, capsys):
        assert main(["batch"]) == 1
        assert "error:" in capsys.readouterr().err


class TestSubmitAgainstLiveServer:
    @pytest.fixture(scope="class")
    def server(self):
        from repro.serve.server import ServeServer

        with ServeServer(port=0, workers=1) as srv:
            yield srv

    def test_submit_example(self, server, capsys):
        assert main(["submit", "--example", "fig17",
                     "--port", str(server.port)]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["status"] == "ok"
        assert reply["output"]["value"] == "<720, 720>"

    def test_submit_file(self, server, tmp_path, capsys):
        path = tmp_path / "p.ft"
        path.write_text("((2 + 3) * 10)")
        assert main(["submit", str(path), "--port", str(server.port)]) == 0
        assert json.loads(capsys.readouterr().out)["output"]["value"] == "50"

    def test_fuel_exhaustion_exit_code(self, server, tmp_path, capsys):
        path = tmp_path / "spin.ft"
        path.write_text("(jmp spin, {spin -> code[]{.; nil} "
                        "end{int; nil}. jmp spin})")
        rc = main(["submit", str(path), "--port", str(server.port),
                   "--fuel", "500"])
        assert rc == EXIT_FUEL_EXHAUSTED
        assert json.loads(
            capsys.readouterr().out)["status"] == "fuel_exhausted"

    def test_connection_refused_is_a_clean_error(self, capsys):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["submit", "--example", "fig17",
                     "--port", str(port)]) == 1
        assert "cannot connect" in capsys.readouterr().err


class TestExamplesRun:
    def test_runs_every_example(self, capsys):
        assert main(["examples", "--run"]) == 0
        out = capsys.readouterr().out
        assert "ran 7 examples" in out
        assert "fact-t" in out and "fig17" in out
