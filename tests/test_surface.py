"""Tests for the surface syntax: lexer, parser productions, error
reporting, and parse/pretty round trips over the paper corpus."""

import pytest

from repro.errors import ParseError
from repro.f.syntax import (
    App, BinOp, FArrow, FInt, Fold, FRec, FTupleT, FTVar, FUnit, If0, IntE,
    Lam, Proj, TupleE, Unfold, UnitE, Var,
)
from repro.ft.syntax import Boundary, FStackArrow, Import, Protect, StackLam
from repro.surface.lexer import Token, tokenize
from repro.surface.parser import (
    parse_component, parse_fexpr, parse_ftype, parse_instr_seq,
    parse_program, parse_ttype,
)
from repro.surface.pretty import pretty_component, pretty_instr_seq
from repro.tal.syntax import (
    Aop, Call, CodeType, Component, DeltaBind, Halt, HCode, Jmp, Loc, Mv,
    NIL_STACK, Pack, QEnd, QEps, QIdx, QOut, QReg, RegFileTy, RegOp, Ret,
    Salloc, StackTy, TBox, TExists, TInt, TRec, TRef, TupleTy, TUnit, TVar,
    TyApp, WInt, WLoc,
)


class TestLexer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("mv r1, 42")]
        assert kinds == ["keyword", "register", "punct", "int", "eof"]

    def test_comments_skipped(self):
        toks = tokenize("1 -- comment\n2 // other\n3")
        assert [t.text for t in toks[:-1]] == ["1", "2", "3"]

    def test_positions(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_compound_punct(self):
        texts = [t.text for t in tokenize("int :: z -> w")[:-1]]
        assert "::" in texts and "->" in texts

    def test_bad_character(self):
        with pytest.raises(ParseError):
            tokenize("a # b")

    def test_primed_identifiers(self):
        toks = tokenize("x' y''")
        assert toks[0].text == "x'"


class TestFTypeParsing:
    @pytest.mark.parametrize("src,expected", [
        ("int", FInt()),
        ("unit", FUnit()),
        ("a", FTVar("a")),
        ("(int) -> int", FArrow((FInt(),), FInt())),
        ("(int, unit) -> int", FArrow((FInt(), FUnit()), FInt())),
        ("mu a. (a) -> int", FRec("a", FArrow((FTVar("a"),), FInt()))),
        ("<int, unit>", FTupleT((FInt(), FUnit()))),
        ("() -> unit", FArrow((), FUnit())),
    ])
    def test_cases(self, src, expected):
        assert parse_ftype(src) == expected

    def test_stack_arrow(self):
        ty = parse_ftype("(int) [; int] -> unit")
        assert ty == FStackArrow((FInt(),), FUnit(), (), (TInt(),))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_ftype("int int")


class TestTTypeParsing:
    @pytest.mark.parametrize("src,expected", [
        ("int", TInt()),
        ("unit", TUnit()),
        ("exists a. a", TExists("a", TVar("a"))),
        ("mu a. ref <a>", TRec("a", TRef((TVar("a"),)))),
        ("box <int, unit>", TBox(TupleTy((TInt(), TUnit())))),
    ])
    def test_cases(self, src, expected):
        assert parse_ttype(src) == expected

    def test_code_type(self):
        src = "box forall[zeta z, eps e].{r1: int; z} ra"
        ty = parse_ttype(src)
        assert isinstance(ty, TBox) and isinstance(ty.psi, CodeType)
        assert ty.psi.delta == (DeltaBind("zeta", "z"),
                                DeltaBind("eps", "e"))
        assert ty.psi.q == QReg("ra")

    def test_empty_regfile(self):
        ty = parse_ttype("box forall[].{.; nil} out")
        assert ty.psi.chi == RegFileTy()
        assert ty.psi.q == QOut()

    def test_end_marker(self):
        ty = parse_ttype("box forall[].{.; nil} end{int; nil}")
        assert ty.psi.q == QEnd(TInt(), NIL_STACK)

    def test_index_marker(self):
        ty = parse_ttype("box forall[].{.; int :: nil} 0")
        assert ty.psi.q == QIdx(0)


class TestExprParsing:
    @pytest.mark.parametrize("src,expected", [
        ("42", IntE(42)),
        ("()", UnitE()),
        ("x", Var("x")),
        ("(1 + 2)", BinOp("+", IntE(1), IntE(2))),
        ("if0 0 {1} {2}", If0(IntE(0), IntE(1), IntE(2))),
        ("<1, ()>", TupleE((IntE(1), UnitE()))),
        ("pi1(<1, 2>)", Proj(1, TupleE((IntE(1), IntE(2))))),
        ("unfold (x)", Unfold(Var("x"))),
    ])
    def test_cases(self, src, expected):
        assert parse_fexpr(src) == expected

    def test_negative_literal(self):
        assert parse_fexpr("- 3") == IntE(-3)

    def test_lambda(self):
        e = parse_fexpr("lam (x: int). (x + 1)")
        assert e == Lam((("x", FInt()),),
                        BinOp("+", Var("x"), IntE(1)))

    def test_stack_lambda(self):
        e = parse_fexpr("lam[int; int] (x: int). x")
        assert isinstance(e, StackLam)
        assert e.phi_in == (TInt(),)

    def test_application_left_nested(self):
        e = parse_fexpr("(f) (1) (2)")
        assert e == App(Var("f"), (IntE(1), IntE(2)))

    def test_precedence_mul_over_add(self):
        e = parse_fexpr("1 + 2 * 3")
        assert e == BinOp("+", IntE(1), BinOp("*", IntE(2), IntE(3)))

    def test_fold(self):
        e = parse_fexpr("fold[mu a. int] (3)")
        assert e == Fold(FRec("a", FInt()), IntE(3))

    def test_boundary(self):
        e = parse_fexpr("FT[int](mv r1, 4; halt int, nil {r1}, .)")
        assert isinstance(e, Boundary)
        assert e.ty == FInt()

    def test_unbalanced_rejected(self):
        with pytest.raises(ParseError):
            parse_fexpr("(1 + 2")


class TestInstructionParsing:
    def test_straight_line(self):
        iseq = parse_instr_seq(
            "mv r1, 5; salloc 1; sst 0, r1; halt int, int :: nil {r1}")
        assert len(iseq.instrs) == 3
        assert isinstance(iseq.term, Halt)

    def test_all_jump_forms(self):
        assert isinstance(parse_instr_seq("jmp l").term, Jmp)
        assert isinstance(
            parse_instr_seq("call l {nil, end{int; nil}}").term, Call)
        assert isinstance(parse_instr_seq("ret ra {r1}").term, Ret)

    def test_operand_forms(self):
        iseq = parse_instr_seq(
            "mv r1, pack <int, 3> as exists a. a; jmp l")
        mv = iseq.instrs[0]
        assert isinstance(mv.u, Pack)

    def test_tyapp_omegas(self):
        iseq = parse_instr_seq("mv ra, l[z, e]; jmp r1")
        u = iseq.instrs[0].u
        assert isinstance(u, TyApp)
        assert u.insts == (StackTy((), "z"), QEps("e"))

    def test_tyapp_sigma_omega(self):
        iseq = parse_instr_seq("mv ra, l[int :: z]; jmp r1")
        u = iseq.instrs[0].u
        assert u.insts == (StackTy((TInt(),), "z"),)

    def test_import_instruction(self):
        iseq = parse_instr_seq(
            "import r1, nil TF[int] ((1 + 1)); halt int, nil {r1}")
        imp = iseq.instrs[0]
        assert isinstance(imp, Import)
        assert imp.expr == BinOp("+", IntE(1), IntE(1))

    def test_protect_instruction(self):
        iseq = parse_instr_seq("protect <int>, z; jmp l")
        assert iseq.instrs[0] == Protect((TInt(),), "z")


class TestComponentParsing:
    def test_empty_heap(self):
        comp = parse_component("(mv r1, 1; halt int, nil {r1}, .)")
        assert comp.heap == ()

    def test_with_blocks(self):
        comp = parse_component(
            "(jmp l, {l -> code[]{r1: int; nil} end{int; nil}. "
            "halt int, nil {r1}})")
        assert len(comp.heap) == 1
        assert isinstance(comp.heap[0][1], HCode)

    def test_data_tuple_heap_value(self):
        comp = parse_component(
            "(mv r1, 1; halt int, nil {r1}, {d -> <1, 2>})")
        from repro.tal.syntax import HTuple

        assert comp.heap[0][1] == HTuple((WInt(1), WInt(2)))


class TestParseProgram:
    def test_expression(self):
        assert parse_program("(1 + 1)") == BinOp("+", IntE(1), IntE(1))

    def test_component(self):
        node = parse_program("(mv r1, 1; halt int, nil {r1}, .)")
        assert isinstance(node, Component)

    def test_parenthesized_expr_is_not_component(self):
        node = parse_program("(lam (x: int). x) (1)")
        assert isinstance(node, App)

    @staticmethod
    def _corpus():
        """Surface texts of the paper examples and of generated F and T
        programs."""
        from repro.papers_examples import (
            example_entries, fig3_call_to_call, import_example,
            sec3_sequences,
        )
        from tests.strategies import (
            random_f_int_expr, random_full_f_expr, random_t_program,
        )

        exprs = [build() for _, build in example_entries().values()]
        exprs += [random_full_f_expr(seed) for seed in range(20)]
        exprs += [random_f_int_expr(seed) for seed in range(20)]
        comps = [fig3_call_to_call.build(), import_example.build(),
                 sec3_sequences.build_sequence_program(),
                 sec3_sequences.build_jmp_program(),
                 sec3_sequences.build_call_program()]
        comps += [random_t_program(seed) for seed in range(20)]
        return [str(x) for x in exprs + comps]

    @staticmethod
    def _probe_then_parse(source):
        """The two-pass dispatch: a probe parser picks the entry point,
        which lexes the source again."""
        from repro.surface.parser import (
            _INSTR_KEYWORDS, _TERMINATOR_KEYWORDS, Parser,
        )

        probe = Parser(source)
        if probe.at("punct", "(") and probe.peek().kind == "keyword" and \
                probe.peek().text in _INSTR_KEYWORDS + _TERMINATOR_KEYWORDS:
            return parse_component(source)
        return parse_fexpr(source)

    @staticmethod
    def _outcome(parse, source):
        try:
            return parse(source)
        except ParseError as err:
            return f"ParseError: {err}"

    def test_tokenizes_once(self, monkeypatch):
        import repro.surface.parser as parser_module

        calls = [0]

        def counted(source):
            calls[0] += 1
            return tokenize(source)

        corpus = self._corpus()
        monkeypatch.setattr(parser_module, "tokenize", counted)
        for text in corpus:
            calls[0] = 0
            self._outcome(parse_program, text)
            assert calls[0] == 1, text

    def test_same_trees_as_probe_then_parse(self):
        for text in self._corpus():
            assert self._outcome(parse_program, text) == \
                self._outcome(self._probe_then_parse, text), text


class TestRoundTrips:
    def _expr_cases(self):
        from repro.papers_examples import (
            fig11_jit, fig16_two_blocks, fig17_factorial, push7,
        )

        return [
            fig11_jit.build_source(), fig11_jit.build_jit(),
            fig16_two_blocks.build_f1(), fig16_two_blocks.build_f2(),
            fig17_factorial.build_fact_f(), fig17_factorial.build_fact_t(),
            push7.build(),
        ]

    def test_expr_round_trips(self):
        for e in self._expr_cases():
            assert parse_fexpr(str(e)) == e or \
                str(parse_fexpr(str(e))) == str(e)

    def test_component_round_trips(self):
        from repro.papers_examples import (
            fig3_call_to_call, import_example, sec3_sequences,
        )

        for comp in (fig3_call_to_call.build(), import_example.build(),
                     sec3_sequences.build_sequence_program(),
                     sec3_sequences.build_jmp_program(),
                     sec3_sequences.build_call_program()):
            assert parse_component(str(comp)) == comp

    def test_type_round_trips(self):
        from repro.ft.translate import type_translation

        cases = [
            type_translation(FArrow((FInt(),), FInt())),
            type_translation(FArrow((FArrow((FInt(),), FInt()),), FInt())),
            TExists("a", TBox(TupleTy((TVar("a"), TInt())))),
            TRec("a", TRef((TVar("a"),))),
        ]
        for ty in cases:
            assert parse_ttype(str(ty)) == ty


class TestPretty:
    def test_component_layout(self):
        from repro.papers_examples.fig3_call_to_call import build

        text = pretty_component(build())
        assert "component:" in text and "where:" in text
        assert "l2aux" in text

    def test_instr_seq_one_per_line(self):
        iseq = parse_instr_seq("mv r1, 1; halt int, nil {r1}")
        lines = pretty_instr_seq(iseq).splitlines()
        assert len(lines) == 2
