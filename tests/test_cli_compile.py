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
