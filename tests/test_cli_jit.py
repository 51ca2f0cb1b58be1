"""Tests for the ``funtal jit`` subcommand."""

import pytest

from repro.cli import main


@pytest.fixture
def fn_file(tmp_path):
    def write(source):
        path = tmp_path / "fn.ft"
        path.write_text(source)
        return str(path)

    return write


class TestJitCommand:
    def test_compiles_and_prints_blocks(self, fn_file, capsys):
        path = fn_file("lam (x: int). (x * 3)")
        assert main(["jit", path]) == 0
        out = capsys.readouterr().out
        assert "component:" in out
        assert "ret ra {r1}" in out

    def test_branching_lambda_shows_blocks(self, fn_file, capsys):
        path = fn_file("lam (x: int). if0 x {1} {2}")
        assert main(["jit", path]) == 0
        out = capsys.readouterr().out
        assert "_else" in out and "_join" in out

    def test_check_flag_discharges_obligation(self, fn_file, capsys):
        path = fn_file("lam (x: int). (x + 1)")
        assert main(["jit", path, "--check", "--fuel", "10000"]) == 0
        assert "indistinguishable" in capsys.readouterr().out

    def test_output_is_optimized(self, fn_file, capsys):
        """The compiler always runs the peephole optimizer, so ``jit``
        prints fewer instructions than the unoptimized compile."""
        from repro.surface.parser import parse_fexpr
        from repro.surface.pretty import pretty_component
        from tests.strategies import raw_codegen

        source = "lam (x: int). ((x * 2) + 1)"
        assert main(["jit", fn_file(source)]) == 0
        printed = capsys.readouterr().out
        plain = pretty_component(raw_codegen(parse_fexpr(source)))
        assert printed.count(";") < plain.count(";")

    def test_optimized_and_checked(self, fn_file, capsys):
        path = fn_file("lam (x: int). ((x * 2) + 1)")
        assert main(["jit", path, "--check", "--fuel", "10000"]) == 0
        assert "indistinguishable" in capsys.readouterr().out

    def test_ineligible_rejected(self, fn_file, capsys):
        path = fn_file("lam (u: unit). 1")
        assert main(["jit", path]) == 2
        assert "not a compilable" in capsys.readouterr().err
