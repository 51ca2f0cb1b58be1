"""Tests for the ``funtal`` command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def program_file(tmp_path):
    def write(source):
        path = tmp_path / "prog.ft"
        path.write_text(source)
        return str(path)

    return write


class TestRun:
    def test_expression(self, program_file, capsys):
        path = program_file("((2 + 3) * 10)")
        assert main(["run", path]) == 0
        assert "value: 50" in capsys.readouterr().out

    def test_component(self, program_file, capsys):
        path = program_file(
            "(import r1, nil TF[int] ((1 + 1)); halt int, nil {r1}, .)")
        assert main(["run", path]) == 0
        assert "halted with 2" in capsys.readouterr().out

    def test_trace_flag(self, program_file, capsys):
        path = program_file(
            "(mv r1, 1; halt int, nil {r1}, .)")
        assert main(["run", path, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "control flow" in out

    def test_fuel_flag(self, program_file, capsys):
        # A spinning component runs out of the given fuel: dedicated exit
        # code, one-line verdict, no traceback.
        from repro.cli import EXIT_FUEL_EXHAUSTED

        path = program_file(
            "(jmp spin, {spin -> code[]{.; nil} end{int; nil}. jmp spin})")
        assert main(["run", path, "--fuel", "500"]) == EXIT_FUEL_EXHAUSTED
        err = capsys.readouterr().err
        assert err.startswith("FuelExhausted:")
        assert "500 steps" in err
        assert len(err.strip().splitlines()) == 1


class TestTypecheck:
    def test_expression(self, program_file, capsys):
        path = program_file("lam (x: int). (x + 1)")
        assert main(["typecheck", path]) == 0
        assert "(int) -> int" in capsys.readouterr().out

    def test_component_with_result_type(self, program_file, capsys):
        path = program_file("(mv r1, (); halt unit, nil {r1}, .)")
        assert main(["typecheck", path, "--result-type", "unit"]) == 0
        assert "unit" in capsys.readouterr().out

    def test_type_error_reported(self, program_file, capsys):
        path = program_file("(1 + ())")
        assert main(["typecheck", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, program_file, capsys):
        path = program_file("lam (x:")
        assert main(["typecheck", path]) == 1


class TestParse:
    def test_expression_echo(self, program_file, capsys):
        path = program_file("(1 + 2)")
        assert main(["parse", path]) == 0
        assert "(1 + 2)" in capsys.readouterr().out

    def test_component_pretty(self, program_file, capsys):
        path = program_file("(mv r1, 1; halt int, nil {r1}, .)")
        assert main(["parse", path]) == 0
        assert "component:" in capsys.readouterr().out


class TestEquiv:
    def test_agreements_printed(self, tmp_path, capsys):
        left, right = tmp_path / "l.ft", tmp_path / "r.ft"
        left.write_text("lam (x: int). (x + x)")
        right.write_text("lam (x: int). (x * 2)")
        assert main(["equiv", str(left), str(right), "--type",
                     "(int) -> int", "--fuel", "5000"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("indistinguishable on ")
        assert len(out) > 1
        assert all(line.startswith("  agreed on ") for line in out[1:])


class TestExamples:
    def test_listing(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "jit" in out and "fact-t" in out

    def test_run_named(self, capsys):
        assert main(["examples", "two-blocks-1"]) == 0
        out = capsys.readouterr().out
        assert "value: 7" in out

    def test_unknown_name(self, capsys):
        assert main(["examples", "nope"]) == 2

    def test_figure_alias(self, capsys):
        assert main(["examples", "fig11"]) == 0
        assert "value:" in capsys.readouterr().out


class TestTrace:
    def test_jsonl_parses_and_counts_crossings(self, capsys):
        assert main(["trace", "fig17", "--format", "jsonl"]) == 0
        out = capsys.readouterr().out
        events = [json.loads(line) for line in out.splitlines() if line]
        assert events
        counters = {e["name"]: e["value"] for e in events
                    if e["type"] == "counter"}
        # Fig 17: fact_t applied crosses F->T twice (the arrow boundary
        # and the callback lambda's) and T->F once (the argument import);
        # fact_f stays in F.
        assert counters["ft.boundary.f_to_t"] == 2
        assert counters["ft.boundary.t_to_f"] == 1

    def test_table_format(self, capsys):
        assert main(["trace", "fig17", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "control flow" in out
        assert "boundary crossings:" in out

    def test_chrome_format(self, capsys):
        assert main(["trace", "fig16", "--format", "chrome"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["traceEvents"]

    def test_out_file(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        assert main(["trace", "fig17", "--format", "jsonl",
                     "--out", path]) == 0
        from repro.obs.trace_export import load_jsonl

        assert load_jsonl(path)
        assert "wrote" in capsys.readouterr().err

    def test_unknown_example(self, capsys):
        assert main(["trace", "nope"]) == 2


class TestStats:
    def test_json_smoke(self, capsys):
        assert main(["stats", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) == {"counters", "gauges", "histograms",
                                 "jit_compile_cache", "jit_quarantine"}
        assert set(snapshot["jit_compile_cache"]) >= {"hits", "misses",
                                                      "size"}
        assert set(snapshot["jit_quarantine"]) >= {"size", "hits"}

    def test_example_json(self, capsys):
        assert main(["stats", "fig17", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["ft.boundary.f_to_t"] == 2

    def test_example_table(self, capsys):
        assert main(["stats", "fact-t"]) == 0
        assert "t.machine.steps" in capsys.readouterr().out

    def test_unknown_example(self, capsys):
        assert main(["stats", "nope"]) == 2


class TestMissingFile:
    @pytest.mark.parametrize("command", ["run", "parse", "typecheck", "lint",
                                         "compile"])
    def test_one_line_error(self, command, tmp_path, capsys):
        path = str(tmp_path / "absent.ft")
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: cannot read '{path}': "
                       f"No such file or directory\n")
