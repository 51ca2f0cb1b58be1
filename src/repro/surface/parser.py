"""Recursive-descent parser for the FunTAL surface syntax.

The grammar is exactly what the AST ``__str__`` methods print (round-trip
tested), modelled on the paper's notation:

F types        ``int``, ``unit``, ``a``, ``mu a. t``, ``<t, t>``,
               ``(t, t) -> t``, ``(t) [phi; phi] -> t``
F expressions  ``x``, ``()``, ``42``, ``(e + e)``, ``if0 e {e} {e}``,
               ``lam (x: t). e``, ``lam[phi; phi] (x: t). e``,
               ``(f) (a) (b)``, ``fold[t] (e)``, ``unfold (e)``,
               ``<e, e>``, ``pi0(e)``, ``FT[t](I, H)``
T types        ``int``, ``unit``, ``a``, ``exists a. t``, ``mu a. t``,
               ``ref <t>``, ``box <t>``,
               ``box forall[a, zeta z, eps e].{r1: t; sigma} q``
stack typings  ``t :: t :: z`` / ``... :: nil`` / ``z`` / ``nil``
return markers ``r1``..``ra``, ``3``, ``e``, ``end{t; sigma}``, ``out``
operands       ``()``, ``7``, a label, a register,
               ``pack <t, u> as t``, ``fold[t] u``, ``u[omega, ...]``
instructions   as printed by :mod:`repro.tal.syntax` (``mv r1, 42`` ...),
               plus ``protect <phi>, z`` and
               ``import r1, sigma TF[t] (e)``
components     ``(I, .)`` or ``(I, {lab -> h; lab -> h})``

Instruction sequences are self-delimiting (they end at their ``jmp`` /
``call`` / ``ret`` / ``halt``), so no extra brackets are needed anywhere.

Disambiguation of a *bare identifier* in an instantiation ``u[omega]``:
names starting with ``z`` parse as stack variables, names starting with
``e`` as return-marker variables, all others as type variables.  Binder
lists always carry explicit ``zeta``/``eps`` sigils, so the convention
only applies at instantiation sites (see the package docstring).
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.f.syntax import (
    App, BinOp, FArrow, FExpr, FInt, Fold as FFold, FRec, FTupleT, FType,
    FTVar, FUnit, If0, IntE, Lam, Proj, TupleE, Unfold as FUnfold, UnitE,
    Var,
)
from repro.ft.syntax import (
    Boundary, FStackArrow, Import, Protect, StackDelta, StackLam,
)
from repro.surface.lexer import Token, tokenize
from repro.tal.syntax import (
    Aop, Balloc, Bnz, Call, CodeType, Component, DeltaBind, Fold as TFold,
    Halt, HCode, HeapValue, HTuple, InstrSeq, Instruction, Jmp, KIND_ALPHA,
    KIND_EPS, KIND_FALPHA, KIND_ZETA, Ld, Loc, Mv, NIL_STACK, Operand,
    Pack, QEnd, QEps, QIdx, QOut, QReg, Ralloc, RegFileTy, RegOp, Ret,
    RetMarker, Salloc, Sfree, Sld, Sst, St, StackTy, TalType, TBox,
    Terminator, TExists, TInt, TRec, TRef, TupleTy, TUnit, TVar, TyApp,
    UnfoldI, Unpack, WInt, WLoc, WordValue, WUnit,
)

__all__ = [
    "parse_fexpr", "parse_ftype", "parse_ttype", "parse_component",
    "parse_instr_seq", "parse_program", "Parser",
]

_PROJ_RE = re.compile(r"^pi(\d+)$")

_TERMINATOR_KEYWORDS = ("jmp", "call", "ret", "halt")
_INSTR_KEYWORDS = (
    "add", "sub", "mul", "bnz", "ld", "st", "ralloc", "balloc", "mv",
    "salloc", "sfree", "sld", "sst", "unpack", "unfold", "protect",
    "import",
)


class Parser:
    """A token cursor with the mutually recursive grammar productions."""

    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # -- cursor helpers -------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.cur
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise ParseError(
                f"expected {want!r}, found {self.cur.text!r}",
                self.cur.line, self.cur.column)
        return self.advance()

    def fail(self, message: str):
        raise ParseError(message, self.cur.line, self.cur.column)

    def expect_eof(self) -> None:
        if not self.at("eof"):
            self.fail(f"trailing input starting at {self.cur.text!r}")

    # -- F types ----------------------------------------------------------

    def ftype(self) -> FType:
        if self.accept("keyword", "unit"):
            return FUnit()
        if self.accept("keyword", "int"):
            return FInt()
        if self.accept("keyword", "mu"):
            var = self.expect("ident").text
            self.expect("punct", ".")
            return FRec(var, self.ftype())
        if self.accept("punct", "<"):
            items = self._comma_list(self.ftype, closer=">")
            self.expect("punct", ">")
            return FTupleT(tuple(items))
        if self.accept("punct", "("):
            params = self._comma_list(self.ftype, closer=")")
            self.expect("punct", ")")
            if self.accept("punct", "["):
                phi_in = self._comma_list(self.ttype, closer=";")
                self.expect("punct", ";")
                phi_out = self._comma_list(self.ttype, closer="]")
                self.expect("punct", "]")
                self.expect("punct", "->")
                return FStackArrow(tuple(params), self.ftype(),
                                   tuple(phi_in), tuple(phi_out))
            self.expect("punct", "->")
            return FArrow(tuple(params), self.ftype())
        if self.at("keyword", "L") or (self.at("ident")
                                       and self.cur.text == "L"
                                       and self.peek().text == "<"):
            self.advance()
            self.expect("punct", "<")
            items = self._comma_list(self.ttype, closer=">")
            self.expect("punct", ">")
            from repro.ft.lump import FLump

            return FLump(tuple(items))
        if self.at("ident"):
            return FTVar(self.advance().text)
        self.fail(f"expected an F type, found {self.cur.text!r}")

    # -- T types ----------------------------------------------------------

    def ttype(self) -> TalType:
        if self.accept("keyword", "unit"):
            return TUnit()
        if self.accept("keyword", "int"):
            return TInt()
        if self.accept("keyword", "exists"):
            var = self.expect("ident").text
            self.expect("punct", ".")
            return TExists(var, self.ttype())
        if self.accept("keyword", "mu"):
            var = self.expect("ident").text
            self.expect("punct", ".")
            return TRec(var, self.ttype())
        if self.accept("keyword", "ref"):
            self.expect("punct", "<")
            items = self._comma_list(self.ttype, closer=">")
            self.expect("punct", ">")
            return TRef(tuple(items))
        if self.accept("keyword", "box"):
            return TBox(self.heap_val_type())
        if self.at("ident"):
            return TVar(self.advance().text)
        self.fail(f"expected a T type, found {self.cur.text!r}")

    def heap_val_type(self):
        if self.accept("punct", "<"):
            items = self._comma_list(self.ttype, closer=">")
            self.expect("punct", ">")
            return TupleTy(tuple(items))
        if self.accept("keyword", "forall"):
            self.expect("punct", "[")
            delta = self._delta_bindings()
            self.expect("punct", "]")
            self.expect("punct", ".")
            self.expect("punct", "{")
            chi = self._regfile()
            self.expect("punct", ";")
            sigma = self.stack_ty()
            self.expect("punct", "}")
            q = self.ret_marker()
            return CodeType(tuple(delta), chi, sigma, q)
        self.fail(f"expected a heap-value type, found {self.cur.text!r}")

    def _delta_bindings(self) -> List[DeltaBind]:
        out: List[DeltaBind] = []
        while not self.at("punct", "]"):
            if self.accept("keyword", "zeta"):
                out.append(DeltaBind(KIND_ZETA, self.expect("ident").text))
            elif self.accept("keyword", "eps"):
                out.append(DeltaBind(KIND_EPS, self.expect("ident").text))
            elif self.accept("keyword", "F"):
                out.append(DeltaBind(KIND_FALPHA, self.expect("ident").text))
            else:
                out.append(DeltaBind(KIND_ALPHA, self.expect("ident").text))
            if not self.accept("punct", ","):
                break
        return out

    def _regfile(self) -> RegFileTy:
        if self.accept("punct", "."):
            return RegFileTy()
        entries: List[Tuple[str, TalType]] = []
        while True:
            reg = self.expect("register").text
            self.expect("punct", ":")
            entries.append((reg, self.ttype()))
            if not self.accept("punct", ","):
                break
        return RegFileTy(tuple(entries))

    def stack_ty(self) -> StackTy:
        prefix: List[TalType] = []
        while True:
            if self.accept("keyword", "nil"):
                return StackTy(tuple(prefix), None)
            # A bare identifier not followed by '::' is the tail variable.
            if self.at("ident") and not self._ident_starts_type_operator():
                tail = self.advance().text
                return StackTy(tuple(prefix), tail)
            prefix.append(self.ttype())
            self.expect("punct", "::")

    def _ident_starts_type_operator(self) -> bool:
        """Is the current identifier a *type* (continued by ``::``) rather
        than the stack tail?"""
        return self.peek().kind == "punct" and self.peek().text == "::"

    def ret_marker(self) -> RetMarker:
        if self.at("register"):
            return QReg(self.advance().text)
        if self.at("int"):
            return QIdx(int(self.advance().text))
        if self.accept("keyword", "out"):
            return QOut()
        if self.accept("keyword", "end"):
            self.expect("punct", "{")
            ty = self.ttype()
            self.expect("punct", ";")
            sigma = self.stack_ty()
            self.expect("punct", "}")
            return QEnd(ty, sigma)
        if self.at("ident"):
            return QEps(self.advance().text)
        self.fail(f"expected a return marker, found {self.cur.text!r}")

    def omega(self):
        """One instantiation: a marker, a stack typing, or a value type."""
        if self.at("register") or self.at("int") \
                or self.at("keyword", "end") or self.at("keyword", "out"):
            return self.ret_marker()
        if self.at("keyword", "nil"):
            return self.stack_ty()
        if self.at("ident"):
            name = self.cur.text
            if self.peek().text == "::":
                return self.stack_ty()
            if name.startswith("z"):
                self.advance()
                return StackTy((), name)
            if name.startswith("e"):
                self.advance()
                return QEps(name)
            return self.ttype()
        ty = self.ttype()
        if self.at("punct", "::"):
            self.expect("punct", "::")
            rest = self.stack_ty()
            return rest.cons(ty)
        return ty

    # -- T operands -------------------------------------------------------

    def operand(self) -> Operand:
        u = self._operand_atom()
        while self.at("punct", "["):
            self.advance()
            insts = self._comma_list(self.omega, closer="]")
            self.expect("punct", "]")
            u = TyApp(u, tuple(insts))
        return u

    def _operand_atom(self) -> Operand:
        if self.at("punct", "(") and self.peek().text == ")":
            self.advance()
            self.advance()
            return WUnit()
        if self.at("int"):
            return WInt(int(self.advance().text))
        if self.at("punct", "-") and self.peek().kind == "int":
            self.advance()
            return WInt(-int(self.advance().text))
        if self.at("register"):
            return RegOp(self.advance().text)
        if self.accept("keyword", "pack"):
            self.expect("punct", "<")
            hidden = self.ttype()
            self.expect("punct", ",")
            body = self.operand()
            self.expect("punct", ">")
            self.expect("keyword", "as")
            return Pack(hidden, body, self.ttype())
        if self.accept("keyword", "fold"):
            self.expect("punct", "[")
            ty = self.ttype()
            self.expect("punct", "]")
            return TFold(ty, self.operand())
        if self.at("ident"):
            return WLoc(Loc(self.advance().text))
        self.fail(f"expected an operand, found {self.cur.text!r}")

    # -- T instructions and sequences --------------------------------------

    def instr_seq(self) -> InstrSeq:
        instrs: List[Instruction] = []
        while True:
            if self.cur.kind == "keyword" and \
                    self.cur.text in _TERMINATOR_KEYWORDS:
                return InstrSeq(tuple(instrs), self.terminator())
            instrs.append(self.instruction())
            self.expect("punct", ";")

    def instruction(self) -> Instruction:
        tok = self.cur
        if tok.kind != "keyword":
            self.fail(f"expected an instruction, found {tok.text!r}")
        name = tok.text
        if name in ("add", "sub", "mul"):
            self.advance()
            rd = self.expect("register").text
            self.expect("punct", ",")
            rs = self.expect("register").text
            self.expect("punct", ",")
            return Aop(name, rd, rs, self.operand())
        if name == "bnz":
            self.advance()
            r = self.expect("register").text
            self.expect("punct", ",")
            return Bnz(r, self.operand())
        if name == "ld":
            self.advance()
            rd = self.expect("register").text
            self.expect("punct", ",")
            rs = self.expect("register").text
            self.expect("punct", "[")
            i = int(self.expect("int").text)
            self.expect("punct", "]")
            return Ld(rd, rs, i)
        if name == "st":
            self.advance()
            rd = self.expect("register").text
            self.expect("punct", "[")
            i = int(self.expect("int").text)
            self.expect("punct", "]")
            self.expect("punct", ",")
            rs = self.expect("register").text
            return St(rd, i, rs)
        if name in ("ralloc", "balloc"):
            self.advance()
            rd = self.expect("register").text
            self.expect("punct", ",")
            n = int(self.expect("int").text)
            return (Ralloc if name == "ralloc" else Balloc)(rd, n)
        if name == "mv":
            self.advance()
            rd = self.expect("register").text
            self.expect("punct", ",")
            return Mv(rd, self.operand())
        if name in ("salloc", "sfree"):
            self.advance()
            n = int(self.expect("int").text)
            return (Salloc if name == "salloc" else Sfree)(n)
        if name == "sld":
            self.advance()
            rd = self.expect("register").text
            self.expect("punct", ",")
            return Sld(rd, int(self.expect("int").text))
        if name == "sst":
            self.advance()
            i = int(self.expect("int").text)
            self.expect("punct", ",")
            return Sst(i, self.expect("register").text)
        if name == "unpack":
            self.advance()
            self.expect("punct", "<")
            alpha = self.expect("ident").text
            self.expect("punct", ",")
            rd = self.expect("register").text
            self.expect("punct", ">")
            return Unpack(alpha, rd, self.operand())
        if name == "unfold":
            self.advance()
            rd = self.expect("register").text
            self.expect("punct", ",")
            return UnfoldI(rd, self.operand())
        if name == "protect":
            self.advance()
            self.expect("punct", "<")
            phi = self._comma_list(self.ttype, closer=">")
            self.expect("punct", ">")
            self.expect("punct", ",")
            return Protect(tuple(phi), self.expect("ident").text)
        if name == "import":
            self.advance()
            rd = self.expect("register").text
            self.expect("punct", ",")
            sigma = self.stack_ty()
            self.expect("keyword", "TF")
            self.expect("punct", "[")
            ty = self.ftype()
            self.expect("punct", "]")
            self.expect("punct", "(")
            expr = self.fexpr()
            self.expect("punct", ")")
            return Import(rd, sigma, ty, expr)
        self.fail(f"unknown instruction {name!r}")

    def terminator(self) -> Terminator:
        if self.accept("keyword", "jmp"):
            return Jmp(self.operand())
        if self.accept("keyword", "call"):
            u = self.operand()
            self.expect("punct", "{")
            sigma = self.stack_ty()
            self.expect("punct", ",")
            q = self.ret_marker()
            self.expect("punct", "}")
            return Call(u, sigma, q)
        if self.accept("keyword", "ret"):
            r = self.expect("register").text
            self.expect("punct", "{")
            rr = self.expect("register").text
            self.expect("punct", "}")
            return Ret(r, rr)
        if self.accept("keyword", "halt"):
            ty = self.ttype()
            self.expect("punct", ",")
            sigma = self.stack_ty()
            self.expect("punct", "{")
            r = self.expect("register").text
            self.expect("punct", "}")
            return Halt(ty, sigma, r)
        self.fail(f"expected a terminator, found {self.cur.text!r}")

    # -- components and heap values ----------------------------------------

    def component(self) -> Component:
        self.expect("punct", "(")
        instrs = self.instr_seq()
        self.expect("punct", ",")
        heap: List[Tuple[Loc, HeapValue]] = []
        if self.accept("punct", "."):
            pass
        else:
            self.expect("punct", "{")
            while not self.at("punct", "}"):
                label = self.expect("ident").text
                self.expect("punct", "->")
                heap.append((Loc(label), self.heap_value()))
                if not self.accept("punct", ";"):
                    break
            self.expect("punct", "}")
        self.expect("punct", ")")
        return Component(instrs, tuple(heap))

    def heap_value(self) -> HeapValue:
        if self.accept("keyword", "code"):
            self.expect("punct", "[")
            delta = self._delta_bindings()
            self.expect("punct", "]")
            self.expect("punct", "{")
            chi = self._regfile()
            self.expect("punct", ";")
            sigma = self.stack_ty()
            self.expect("punct", "}")
            q = self.ret_marker()
            self.expect("punct", ".")
            return HCode(tuple(delta), chi, sigma, q, self.instr_seq())
        if self.accept("punct", "<"):
            words = []
            if not self.at("punct", ">"):
                while True:
                    w = self.operand()
                    words.append(w)
                    if not self.accept("punct", ","):
                        break
            self.expect("punct", ">")
            return HTuple(tuple(words))
        self.fail(f"expected a heap value, found {self.cur.text!r}")

    # -- F expressions -------------------------------------------------------

    def fexpr(self) -> FExpr:
        # additive level (+, -) over a multiplicative level (*), both
        # left-associative; printed terms are always parenthesized, so
        # precedence only matters for hand-written programs.
        left = self._mul_expr()
        while self.cur.kind == "punct" and self.cur.text in ("+", "-"):
            op = self.advance().text
            right = self._mul_expr()
            left = BinOp(op, left, right)
        return left

    def _mul_expr(self) -> FExpr:
        left = self._application()
        while self.at("punct", "*"):
            self.advance()
            right = self._application()
            left = BinOp("*", left, right)
        return left

    def _application(self) -> FExpr:
        head = self._primary()
        args: List[FExpr] = []
        while self._starts_primary():
            args.append(self._primary())
        if args:
            return App(head, tuple(args))
        return head

    def _starts_primary(self) -> bool:
        tok = self.cur
        if tok.kind in ("int", "ident"):
            return True
        if tok.kind == "punct" and tok.text in ("(", "<"):
            return True
        if tok.kind == "keyword" and tok.text in (
                "lam", "if0", "fold", "unfold", "FT"):
            return True
        return False

    def _primary(self) -> FExpr:
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            return IntE(int(tok.text))
        if self.at("punct", "-") and self.peek().kind == "int":
            self.advance()
            return IntE(-int(self.advance().text))
        if tok.kind == "ident":
            m = _PROJ_RE.match(tok.text)
            if m and self.peek().text == "(":
                self.advance()
                self.expect("punct", "(")
                body = self.fexpr()
                self.expect("punct", ")")
                return Proj(int(m.group(1)), body)
            self.advance()
            return Var(tok.text)
        if self.at("punct", "("):
            if self.peek().text == ")":
                self.advance()
                self.advance()
                return UnitE()
            self.advance()
            inner = self.fexpr()
            self.expect("punct", ")")
            return inner
        if self.at("punct", "<"):
            self.advance()
            items = self._comma_list(self.fexpr, closer=">")
            self.expect("punct", ">")
            return TupleE(tuple(items))
        if self.accept("keyword", "if0"):
            cond = self.fexpr()
            self.expect("punct", "{")
            then = self.fexpr()
            self.expect("punct", "}")
            self.expect("punct", "{")
            els = self.fexpr()
            self.expect("punct", "}")
            return If0(cond, then, els)
        if self.accept("keyword", "lam"):
            phi_in = phi_out = None
            if self.accept("punct", "["):
                phi_in = self._comma_list(self.ttype, closer=";")
                self.expect("punct", ";")
                phi_out = self._comma_list(self.ttype, closer="]")
                self.expect("punct", "]")
            self.expect("punct", "(")
            params: List[Tuple[str, FType]] = []
            while not self.at("punct", ")"):
                x = self.expect("ident").text
                self.expect("punct", ":")
                params.append((x, self.ftype()))
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ")")
            self.expect("punct", ".")
            body = self.fexpr()
            if phi_in is None:
                return Lam(tuple(params), body)
            return StackLam(tuple(params), body,
                            tuple(phi_in), tuple(phi_out or ()))
        if self.accept("keyword", "fold"):
            self.expect("punct", "[")
            ann = self.ftype()
            self.expect("punct", "]")
            self.expect("punct", "(")
            body = self.fexpr()
            self.expect("punct", ")")
            return FFold(ann, body)
        if self.accept("keyword", "unfold"):
            self.expect("punct", "(")
            body = self.fexpr()
            self.expect("punct", ")")
            return FUnfold(body)
        if self.accept("keyword", "FT"):
            self.expect("punct", "[")
            ty = self.ftype()
            delta = StackDelta()
            if self.accept("punct", ";"):
                neg = bool(self.accept("punct", "-"))
                pops = int(self.expect("int").text)
                if not neg and pops:
                    self.fail("boundary pop count must be written -n")
                self.expect("punct", ";")
                self.expect("punct", "<")
                pushes = self._comma_list(self.ttype, closer=">")
                self.expect("punct", ">")
                delta = StackDelta(pops, tuple(pushes))
            self.expect("punct", "]")
            return Boundary(ty, self.component(), delta)
        self.fail(f"expected an expression, found {tok.text!r}")

    # -- generic helpers ------------------------------------------------------

    def _comma_list(self, production, closer: str) -> List:
        items: List = []
        if self.at("punct", closer):
            return items
        while True:
            items.append(production())
            if not self.accept("punct", ","):
                return items


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def parse_fexpr(source: str) -> FExpr:
    """Parse a complete F(T) expression."""
    p = Parser(source)
    e = p.fexpr()
    p.expect_eof()
    return e


def parse_ftype(source: str) -> FType:
    p = Parser(source)
    ty = p.ftype()
    p.expect_eof()
    return ty


def parse_ttype(source: str) -> TalType:
    p = Parser(source)
    ty = p.ttype()
    p.expect_eof()
    return ty


def parse_component(source: str) -> Component:
    p = Parser(source)
    comp = p.component()
    p.expect_eof()
    return comp


def parse_instr_seq(source: str) -> InstrSeq:
    p = Parser(source)
    iseq = p.instr_seq()
    p.expect_eof()
    return iseq


def parse_program(source: str):
    """Parse a whole program: an F expression, or a bare T component.

    T components open with ``(`` followed by an instruction keyword, which
    no F expression does; everything else parses as F.  The source is
    tokenized once: the parser that looks at the first two tokens parses
    the program.
    """
    p = Parser(source)
    if p.at("punct", "(") and p.peek().kind == "keyword" and \
            p.peek().text in _INSTR_KEYWORDS + _TERMINATOR_KEYWORDS:
        tree = p.component()
    else:
        tree = p.fexpr()
    p.expect_eof()
    return tree
