"""Integer literals at the surface: a literal too long for Python's
``int`` and a non-ASCII digit are located parse errors, never a crash,
at every place the grammar reads a number.  Also the lexer's handling
of whitespace after the last token."""

import pytest

from repro.cli import main
from repro.errors import ParseError
from repro.f.syntax import BinOp, IntE, Proj, TupleE
from repro.surface.lexer import Token, tokenize
from repro.surface.parser import parse_instr_seq, parse_program

HUGE = "1" * 5000
HALT = "halt int, nil {r1}"

#: (source, line, column of the literal): one per place a number is read.
OVERSIZED = {
    "f-literal": (f"1 + {HUGE}", 1, 5),
    "f-negative-literal": (f"1 * -{HUGE}", 1, 6),
    "projection-index": (f"pi{HUGE}(<1>)", 1, 1),
    "boundary-pop-count": (f"FT[int; -{HUGE}; <>]({HALT}, .)", 1, 10),
    "t-operand": (f"(mv r1, {HUGE}; {HALT}, .)", 1, 9),
    "t-negative-operand": (f"(mv r1, -{HUGE}; {HALT}, .)", 1, 10),
    "t-aop-operand": (f"(add r1, r1, {HUGE}; {HALT}, .)", 1, 14),
    "load-index": (f"(ld r1, r2[{HUGE}]; {HALT}, .)", 1, 12),
    "store-index": (f"(st r1[{HUGE}], r2; {HALT}, .)", 1, 8),
    "alloc-size": (f"(ralloc r1, {HUGE}; {HALT}, .)", 1, 13),
    "stack-size": (f"(salloc {HUGE}; {HALT}, .)", 1, 9),
    "stack-slot": (f"(sld r1, {HUGE}; {HALT}, .)", 1, 10),
    "return-marker": (f"(call l {{nil, {HUGE}}}, .)", 1, 15),
    "instantiation": (f"(jmp l[{HUGE}], .)", 1, 8),
}


@pytest.mark.parametrize("site", sorted(OVERSIZED))
def test_oversized_literal_is_a_located_parse_error(site):
    source, line, column = OVERSIZED[site]
    with pytest.raises(ParseError, match="integer literal too long") as info:
        parse_program(source)
    assert (info.value.line, info.value.column) == (line, column)


def test_longest_literal_python_reads_still_parses():
    digits = "9" * 4300
    assert parse_program(f"{digits} + 1") == BinOp("+", IntE(int(digits)),
                                                   IntE(1))
    assert parse_program(f"pi0(<{digits}>)") == Proj(0, TupleE((
        IntE(int(digits)),)))


@pytest.mark.parametrize("digit", ["٣", "１", "१"])
def test_non_ascii_digits_are_unexpected(digit):
    with pytest.raises(ParseError, match="unexpected character") as info:
        parse_program(f"{digit} + 1")
    assert (info.value.line, info.value.column) == (1, 1)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_instr_seq(f"mv r1, {digit}; {HALT}")
    with pytest.raises(ParseError, match="unexpected character"):
        tokenize(f"x{digit}")


def test_ascii_digits_still_tokenize():
    assert [(t.kind, t.text) for t in tokenize("0123456789 x9")[:-1]] == [
        ("int", "0123456789"), ("ident", "x9")]


def test_trailing_whitespace_is_scanned_once():
    # Matching the token pattern at each trailing blank would backtrack
    # over all the blanks after it: minutes for this source.
    tokens = tokenize("1" + " \n" * 100_000)
    assert tokens[-1] == Token("eof", "", 100_001, 1)
    assert [t.text for t in tokens] == ["1", ""]


@pytest.mark.parametrize("command", ["parse", "run", "typecheck"])
@pytest.mark.parametrize("source", [HUGE, "1 # 2", "٣ + 1"],
                         ids=["huge-literal", "stray-hash", "arabic-digit"])
def test_cli_reports_one_error_line(command, source, tmp_path, capsys):
    path = tmp_path / "bad.ft"
    path.write_text(source + "\n")
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    lines = [line for line in (captured.out + captured.err).splitlines()
             if line.startswith("error: ")]
    assert len(lines) == 1, captured
