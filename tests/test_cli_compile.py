"""Tests for the ``funtal compile`` subcommand."""

import pytest

from repro.cli import main


@pytest.fixture
def program_file(tmp_path):
    def write(source):
        path = tmp_path / "prog.ft"
        path.write_text(source)
        return str(path)

    return write


class TestCompile:
    def test_arith_lambda(self, program_file, capsys):
        path = program_file("lam (x: int). (x + 1)")
        assert main(["compile", path]) == 0
        out = capsys.readouterr().out
        assert "type: (int) -> int" in out
        assert "blocks: 1" in out
        assert "ret ra" in out

    def test_higher_order_goes_general(self, program_file, capsys):
        path = program_file(
            "lam (g: (int) -> int). (g (5))")
        assert main(["compile", path]) == 0
        out = capsys.readouterr().out
        assert "type: ((int) -> int) -> int" in out
        assert "blocks:" in out

    def test_forced_tier_and_ir(self, program_file, capsys):
        """There is one compiler: ``--tier`` is gone, ``--ir`` stays."""
        path = program_file("lam (x: int). (x + 1)")
        with pytest.raises(SystemExit) as err:
            main(["compile", path, "--tier", "general"])
        assert err.value.code == 2
        capsys.readouterr()
        assert main(["compile", path, "--ir"]) == 0
        out = capsys.readouterr().out
        assert "tier:" not in out
        assert "closure IR:" in out

    def test_example_run_and_validate(self, capsys):
        assert main(["compile", "fact-f", "--run", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "translation validation: validated" in out
        assert "value: 720" in out

    def test_run_with_apply(self, program_file, capsys):
        path = program_file("lam (x: int). (x * 3)")
        assert main(["compile", path, "--run", "--apply", "14"]) == 0
        assert "value: 42" in capsys.readouterr().out

    def test_run_function_without_apply_is_usage_error(
            self, program_file, capsys):
        path = program_file("lam (x: int). (x * 3)")
        assert main(["compile", path, "--run"]) == 2
        assert "--apply" in capsys.readouterr().err

    def test_component_rejected(self, program_file, capsys):
        path = program_file("(mv r1, 1; halt int, nil {r1}, .)")
        assert main(["compile", path]) == 2
        assert "F term" in capsys.readouterr().err

    def test_ineligible_term_fails_cleanly(self, capsys):
        # fact-t wraps a T component in boundaries: outside the compiler
        assert main(["compile", "fact-t"]) == 1
        err = capsys.readouterr().err
        assert "not a compilable F term" in err

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("((1 + 2) * 7)"))
        assert main(["compile", "-", "--run"]) == 0
        out = capsys.readouterr().out
        assert "value: 21" in out

    # The Fig 11 JIT's lambdas (first-order arithmetic) through the one
    # compiler: what ``funtal jit`` printed and checked before it folded
    # into ``compile``.
    def test_lambda_prints_component(self, program_file, capsys):
        path = program_file("lam (x: int). (x * 3)")
        assert main(["compile", path]) == 0
        out = capsys.readouterr().out
        assert "component:" in out
        assert "ret ra {r1}" in out

    def test_branching_lambda_shows_blocks(self, program_file, capsys):
        path = program_file("lam (x: int). if0 x {1} {2}")
        assert main(["compile", path]) == 0
        out = capsys.readouterr().out
        assert "_else" in out and "_join" in out

    def test_validate_discharges_obligation(self, program_file, capsys):
        path = program_file("lam (x: int). (x + 1)")
        assert main(["compile", path, "--validate", "--fuel", "10000"]) == 0
        assert "translation validation: validated" in capsys.readouterr().out

    def test_output_is_optimized(self, program_file, capsys):
        """The compiler always runs the peephole optimizer, so it prints
        fewer instructions than the unoptimized code generator."""
        from repro.surface.parser import parse_fexpr
        from repro.surface.pretty import pretty_component
        from tests.strategies import raw_codegen

        source = "lam (x: int). ((x * 2) + 1)"
        assert main(["compile", program_file(source)]) == 0
        printed = capsys.readouterr().out
        plain = pretty_component(raw_codegen(parse_fexpr(source)))
        assert printed.count(";") < plain.count(";")

    def test_optimized_and_validated(self, program_file, capsys):
        path = program_file("lam (x: int). ((x * 2) + 1)")
        assert main(["compile", path, "--validate", "--fuel", "10000"]) == 0
        assert "translation validation: validated" in capsys.readouterr().out

    def test_non_arithmetic_lambda_compiles(self, program_file, capsys):
        """Outside the JIT's scope, inside the compiler's."""
        path = program_file("lam (u: unit). 1")
        assert main(["compile", path]) == 0
        assert "type: (unit) -> int" in capsys.readouterr().out

    def test_store_reuses_the_validation_receipt(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        for verdict in ("validated", "cached receipt"):
            assert main(["compile", "fact-f", "--store", store,
                         "--validate"]) == 0
            out = capsys.readouterr().out
            assert "stored: " in out
            assert f"translation validation: {verdict}" in out
