"""Parser for the FunTAL surface syntax.

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

The parser reads the lexer's tokens as two plain tuples, their kinds and
their texts, through an integer index.  F expressions -- ``+ - *``
(left-associative, ``*`` binding tighter), application, ``if0``,
``lam``, tuples, projections, ``fold``/``unfold`` and parentheses -- are
parsed by one loop over an explicit stack of open sub-expressions
(:meth:`Parser.fexpr`), so nesting costs a list entry, not a Python
frame.  Types, operands, instructions and components are recursive
descent over the same index; only a boundary inside an ``import``
inside a boundary nests the expression loop.  A literal too long for
Python's ``int`` is a :class:`ParseError` at the literal.
"""

from __future__ import annotations

from typing import List, Tuple

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
    KIND_EPS, KIND_FALPHA, KIND_ZETA, Ld, Loc, Mv, Operand, Pack, QEnd,
    QEps, QIdx, QOut, QReg, Ralloc, RegFileTy, RegOp, Ret, RetMarker,
    Salloc, Sfree, Sld, Sst, St, StackTy, TalType, TBox, Terminator,
    TExists, TInt, TRec, TRef, TupleTy, TUnit, TVar, TyApp, UnfoldI, Unpack,
    WInt, WLoc, WUnit,
)

__all__ = [
    "parse_fexpr", "parse_ftype", "parse_ttype", "parse_component",
    "parse_instr_seq", "parse_program", "Parser",
]

_TERMINATOR_KEYWORDS = ("jmp", "call", "ret", "halt")
_INSTR_KEYWORDS = (
    "add", "sub", "mul", "bnz", "ld", "st", "ralloc", "balloc", "mv",
    "salloc", "sfree", "sld", "sst", "unpack", "unfold", "protect",
    "import",
)
_COMPONENT_OPENERS = frozenset(_INSTR_KEYWORDS + _TERMINATOR_KEYWORDS)

#: Token kinds, and punctuation or keyword texts, that start an F operand
#: (and so another argument of an application).
_OPERAND_KINDS = frozenset({"int", "ident"})
_OPERAND_TEXTS = frozenset({"(", "<", "lam", "if0", "fold", "unfold", "FT"})

# What an open sub-expression of :meth:`Parser.fexpr` becomes once its
# expression is complete.
_PAREN, _PROJ, _TUPLE, _IF0_COND, _IF0_THEN, _IF0_ELSE, _LAM, _FOLD, \
    _UNFOLD = range(9)


class Parser:
    """A token index over the lexer's kinds and texts, with the grammar's
    productions.  ``at`` and ``peek`` look at the tokens without moving."""

    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.kinds, self.texts, _, _ = zip(*self.tokens)
        self.pos = 0

    # -- cursor -------------------------------------------------------------
    #
    # A punctuation mark or keyword is matched by its text alone: no token
    # of another kind has the same text.

    def at(self, kind: str, text: str = None) -> bool:
        i = self.pos
        return self.kinds[i] == kind and (text is None or self.texts[i] == text)

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def _fail(self, i: int, message: str):
        tok = self.tokens[i]
        raise ParseError(message, tok.line, tok.column)

    def _expected(self, i: int, want: str):
        self._fail(i, f"expected {want!r}, found {self.texts[i]!r}")

    def _skip(self, text: str) -> bool:
        """Step over the token if its text is ``text``."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def _take(self, text: str) -> None:
        """Step over the punctuation mark or keyword ``text``."""
        i = self.pos
        if self.texts[i] != text:
            self._expected(i, text)
        self.pos = i + 1

    def _name(self, kind: str) -> str:
        """Step over a token of ``kind`` and return its text."""
        i = self.pos
        if self.kinds[i] != kind:
            self._expected(i, kind)
        self.pos = i + 1
        return self.texts[i]

    def _number(self, text: str, i: int) -> int:
        """The digits ``text`` of token ``i`` as an int."""
        try:
            return int(text)
        except ValueError:      # more digits than Python's int parser takes
            self._fail(i, f"integer literal too long ({len(text)} digits)")

    def _int(self) -> int:
        i = self.pos
        return self._number(self._name("int"), i)

    def expect_eof(self) -> None:
        i = self.pos
        if self.kinds[i] != "eof":
            self._fail(i, f"trailing input starting at {self.texts[i]!r}")

    # -- F types ----------------------------------------------------------

    def ftype(self) -> FType:
        texts = self.texts
        i = self.pos
        t = texts[i]
        if t == "int":
            self.pos = i + 1
            return FInt()
        if t == "unit":
            self.pos = i + 1
            return FUnit()
        if t == "mu":
            self.pos = i + 1
            var = self._name("ident")
            self._take(".")
            return FRec(var, self.ftype())
        if t == "<":
            self.pos = i + 1
            items = self._comma_list(self.ftype, ">")
            self._take(">")
            return FTupleT(tuple(items))
        if t == "(":
            self.pos = i + 1
            params = self._comma_list(self.ftype, ")")
            self._take(")")
            if self._skip("["):
                phi_in = self._comma_list(self.ttype, ";")
                self._take(";")
                phi_out = self._comma_list(self.ttype, "]")
                self._take("]")
                self._take("->")
                return FStackArrow(tuple(params), self.ftype(),
                                   tuple(phi_in), tuple(phi_out))
            self._take("->")
            return FArrow(tuple(params), self.ftype())
        if self.kinds[i] == "ident":
            self.pos = i + 1
            if t == "L" and texts[i + 1] == "<":
                self.pos = i + 2
                items = self._comma_list(self.ttype, ">")
                self._take(">")
                from repro.ft.lump import FLump

                return FLump(tuple(items))
            return FTVar(t)
        self._fail(i, f"expected an F type, found {t!r}")

    # -- T types ----------------------------------------------------------

    def ttype(self) -> TalType:
        i = self.pos
        t = self.texts[i]
        if t == "int":
            self.pos = i + 1
            return TInt()
        if t == "unit":
            self.pos = i + 1
            return TUnit()
        if t == "exists" or t == "mu":
            self.pos = i + 1
            var = self._name("ident")
            self._take(".")
            return (TExists if t == "exists" else TRec)(var, self.ttype())
        if t == "ref":
            self.pos = i + 1
            self._take("<")
            items = self._comma_list(self.ttype, ">")
            self._take(">")
            return TRef(tuple(items))
        if t == "box":
            self.pos = i + 1
            return TBox(self.heap_val_type())
        if self.kinds[i] == "ident":
            self.pos = i + 1
            return TVar(t)
        self._fail(i, f"expected a T type, found {t!r}")

    def heap_val_type(self):
        if self._skip("<"):
            items = self._comma_list(self.ttype, ">")
            self._take(">")
            return TupleTy(tuple(items))
        if self._skip("forall"):
            self._take("[")
            delta = self._delta_bindings()
            self._take("]")
            self._take(".")
            self._take("{")
            chi = self._regfile()
            self._take(";")
            sigma = self.stack_ty()
            self._take("}")
            return CodeType(tuple(delta), chi, sigma, self.ret_marker())
        i = self.pos
        self._fail(i, f"expected a heap-value type, found {self.texts[i]!r}")

    _BINDER_KINDS = {"zeta": KIND_ZETA, "eps": KIND_EPS, "F": KIND_FALPHA}

    def _delta_bindings(self) -> List[DeltaBind]:
        out: List[DeltaBind] = []
        while self.texts[self.pos] != "]":
            kind = self._BINDER_KINDS.get(self.texts[self.pos])
            if kind is None:
                kind = KIND_ALPHA
            else:
                self.pos += 1
            out.append(DeltaBind(kind, self._name("ident")))
            if not self._skip(","):
                break
        return out

    def _regfile(self) -> RegFileTy:
        if self._skip("."):
            return RegFileTy()
        entries: List[Tuple[str, TalType]] = []
        while True:
            reg = self._name("register")
            self._take(":")
            entries.append((reg, self.ttype()))
            if not self._skip(","):
                break
        return RegFileTy(tuple(entries))

    def stack_ty(self) -> StackTy:
        texts = self.texts
        prefix: List[TalType] = []
        while True:
            i = self.pos
            if texts[i] == "nil":
                self.pos = i + 1
                return StackTy(tuple(prefix), None)
            # A bare identifier not followed by '::' is the tail variable.
            if self.kinds[i] == "ident" and texts[i + 1] != "::":
                self.pos = i + 1
                return StackTy(tuple(prefix), texts[i])
            prefix.append(self.ttype())
            self._take("::")

    def ret_marker(self) -> RetMarker:
        i = self.pos
        kind, t = self.kinds[i], self.texts[i]
        if kind == "register":
            self.pos = i + 1
            return QReg(t)
        if kind == "int":
            return QIdx(self._int())
        if t == "out":
            self.pos = i + 1
            return QOut()
        if t == "end":
            self.pos = i + 1
            self._take("{")
            ty = self.ttype()
            self._take(";")
            sigma = self.stack_ty()
            self._take("}")
            return QEnd(ty, sigma)
        if kind == "ident":
            self.pos = i + 1
            return QEps(t)
        self._fail(i, f"expected a return marker, found {t!r}")

    def omega(self):
        """One instantiation: a marker, a stack typing, or a value type."""
        i = self.pos
        kind, t = self.kinds[i], self.texts[i]
        if kind == "register" or kind == "int" or t == "end" or t == "out":
            return self.ret_marker()
        if t == "nil":
            return self.stack_ty()
        if kind == "ident":
            if self.texts[i + 1] == "::":
                return self.stack_ty()
            if t.startswith("z"):
                self.pos = i + 1
                return StackTy((), t)
            if t.startswith("e"):
                self.pos = i + 1
                return QEps(t)
            return self.ttype()
        ty = self.ttype()
        if self._skip("::"):
            return self.stack_ty().cons(ty)
        return ty

    # -- T operands -------------------------------------------------------

    def operand(self) -> Operand:
        u = self._operand_atom()
        while self._skip("["):
            insts = self._comma_list(self.omega, "]")
            self._take("]")
            u = TyApp(u, tuple(insts))
        return u

    def _operand_atom(self) -> Operand:
        texts = self.texts
        i = self.pos
        kind, t = self.kinds[i], texts[i]
        if t == "(" and texts[i + 1] == ")":
            self.pos = i + 2
            return WUnit()
        if kind == "int":
            return WInt(self._int())
        if t == "-" and self.kinds[i + 1] == "int":
            self.pos = i + 1
            return WInt(-self._int())
        if kind == "register":
            self.pos = i + 1
            return RegOp(t)
        if t == "pack":
            self.pos = i + 1
            self._take("<")
            hidden = self.ttype()
            self._take(",")
            body = self.operand()
            self._take(">")
            self._take("as")
            return Pack(hidden, body, self.ttype())
        if t == "fold":
            self.pos = i + 1
            self._take("[")
            ty = self.ttype()
            self._take("]")
            return TFold(ty, self.operand())
        if kind == "ident":
            self.pos = i + 1
            return WLoc(Loc(t))
        self._fail(i, f"expected an operand, found {t!r}")

    # -- T instructions and sequences --------------------------------------

    def instr_seq(self) -> InstrSeq:
        instrs: List[Instruction] = []
        while self.texts[self.pos] not in _TERMINATOR_KEYWORDS:
            instrs.append(self.instruction())
            self._take(";")
        return InstrSeq(tuple(instrs), self.terminator())

    def instruction(self) -> Instruction:
        i = self.pos
        name = self.texts[i]
        if self.kinds[i] != "keyword":
            self._fail(i, f"expected an instruction, found {name!r}")
        self.pos = i + 1
        if name in ("add", "sub", "mul"):
            rd = self._name("register")
            self._take(",")
            rs = self._name("register")
            self._take(",")
            return Aop(name, rd, rs, self.operand())
        if name == "bnz":
            r = self._name("register")
            self._take(",")
            return Bnz(r, self.operand())
        if name == "ld":
            rd = self._name("register")
            self._take(",")
            rs = self._name("register")
            self._take("[")
            n = self._int()
            self._take("]")
            return Ld(rd, rs, n)
        if name == "st":
            rd = self._name("register")
            self._take("[")
            n = self._int()
            self._take("]")
            self._take(",")
            return St(rd, n, self._name("register"))
        if name in ("ralloc", "balloc"):
            rd = self._name("register")
            self._take(",")
            return (Ralloc if name == "ralloc" else Balloc)(rd, self._int())
        if name == "mv":
            rd = self._name("register")
            self._take(",")
            return Mv(rd, self.operand())
        if name in ("salloc", "sfree"):
            return (Salloc if name == "salloc" else Sfree)(self._int())
        if name == "sld":
            rd = self._name("register")
            self._take(",")
            return Sld(rd, self._int())
        if name == "sst":
            n = self._int()
            self._take(",")
            return Sst(n, self._name("register"))
        if name == "unpack":
            self._take("<")
            alpha = self._name("ident")
            self._take(",")
            rd = self._name("register")
            self._take(">")
            return Unpack(alpha, rd, self.operand())
        if name == "unfold":
            rd = self._name("register")
            self._take(",")
            return UnfoldI(rd, self.operand())
        if name == "protect":
            self._take("<")
            phi = self._comma_list(self.ttype, ">")
            self._take(">")
            self._take(",")
            return Protect(tuple(phi), self._name("ident"))
        if name == "import":
            rd = self._name("register")
            self._take(",")
            sigma = self.stack_ty()
            self._take("TF")
            self._take("[")
            ty = self.ftype()
            self._take("]")
            self._take("(")
            expr = self.fexpr()
            self._take(")")
            return Import(rd, sigma, ty, expr)
        self._fail(i, f"unknown instruction {name!r}")

    def terminator(self) -> Terminator:
        if self._skip("jmp"):
            return Jmp(self.operand())
        if self._skip("call"):
            u = self.operand()
            self._take("{")
            sigma = self.stack_ty()
            self._take(",")
            q = self.ret_marker()
            self._take("}")
            return Call(u, sigma, q)
        if self._skip("ret"):
            r = self._name("register")
            self._take("{")
            rr = self._name("register")
            self._take("}")
            return Ret(r, rr)
        if self._skip("halt"):
            ty = self.ttype()
            self._take(",")
            sigma = self.stack_ty()
            self._take("{")
            r = self._name("register")
            self._take("}")
            return Halt(ty, sigma, r)
        i = self.pos
        self._fail(i, f"expected a terminator, found {self.texts[i]!r}")

    # -- components and heap values ----------------------------------------

    def component(self) -> Component:
        self._take("(")
        instrs = self.instr_seq()
        self._take(",")
        heap: List[Tuple[Loc, HeapValue]] = []
        if not self._skip("."):
            self._take("{")
            while self.texts[self.pos] != "}":
                label = self._name("ident")
                self._take("->")
                heap.append((Loc(label), self.heap_value()))
                if not self._skip(";"):
                    break
            self._take("}")
        self._take(")")
        return Component(instrs, tuple(heap))

    def heap_value(self) -> HeapValue:
        if self._skip("code"):
            self._take("[")
            delta = self._delta_bindings()
            self._take("]")
            self._take("{")
            chi = self._regfile()
            self._take(";")
            sigma = self.stack_ty()
            self._take("}")
            q = self.ret_marker()
            self._take(".")
            return HCode(tuple(delta), chi, sigma, q, self.instr_seq())
        if self._skip("<"):
            words = []
            if self.texts[self.pos] != ">":
                while True:
                    words.append(self.operand())
                    if not self._skip(","):
                        break
            self._take(">")
            return HTuple(tuple(words))
        i = self.pos
        self._fail(i, f"expected a heap value, found {self.texts[i]!r}")

    # -- F expressions -------------------------------------------------------

    def fexpr(self) -> FExpr:
        """An F(T) expression: additive (``+``, ``-``) over multiplicative
        (``*``) over application, both operator levels left-associative;
        printed terms are always parenthesized, so precedence only matters
        for hand-written programs.

        One loop, two phases.  It reads an *operand* at token ``i``: a
        literal, a variable or ``()`` is complete at once, while an opener
        (``(``, ``<``, ``pi0(``, ``if0``, ``lam``, ``fold``, ``unfold``)
        pushes an entry on ``stack`` -- what the sub-expression becomes,
        and the enclosing level's partial sums -- and starts a fresh level
        for the sub-expression.  A complete operand then extends the
        innermost level: another operand is an argument, ``*`` closes an
        application into the product, ``+``/``-`` close the product into
        the sum, and any other token completes the level, whose
        expression pops the innermost entry and becomes an operand of the
        level below.  The tokens are checked in the order the grammar's
        recursive-descent reading checks them, so errors name the same
        token.
        """
        texts, kinds = self.texts, self.kinds
        i = self.pos
        stack: list = []
        # The innermost level: ``total op product * (head args...)``.
        total = op = product = head = args = None
        while True:
            # -- read an operand at token i ---------------------------------
            t = texts[i]
            kind = kinds[i]
            if kind == "int":
                v = IntE(self._number(t, i))
                i += 1
            elif kind == "ident":
                if t.startswith("pi") and t[2:].isdigit() \
                        and texts[i + 1] == "(":
                    stack.append((_PROJ, i, total, op, product, head, args))
                    total = op = product = head = args = None
                    i += 2
                    continue
                v = Var(t)
                i += 1
            elif t == "(":
                if texts[i + 1] == ")":
                    v = UnitE()
                    i += 2
                else:
                    stack.append((_PAREN, None, total, op, product, head,
                                  args))
                    total = op = product = head = args = None
                    i += 1
                    continue
            elif t == "<":
                if texts[i + 1] == ">":
                    v = TupleE(())
                    i += 2
                else:
                    stack.append((_TUPLE, [], total, op, product, head, args))
                    total = op = product = head = args = None
                    i += 1
                    continue
            elif t == "-" and kinds[i + 1] == "int":
                v = IntE(-self._number(texts[i + 1], i + 1))
                i += 2
            elif t == "if0":
                stack.append((_IF0_COND, None, total, op, product, head, args))
                total = op = product = head = args = None
                i += 1
                continue
            elif t == "lam":
                self.pos = i + 1
                header = self._lam_header()
                i = self.pos
                stack.append((_LAM, header, total, op, product, head, args))
                total = op = product = head = args = None
                continue
            elif t == "fold":
                self.pos = i + 1
                self._take("[")
                ann = self.ftype()
                self._take("]")
                self._take("(")
                i = self.pos
                stack.append((_FOLD, ann, total, op, product, head, args))
                total = op = product = head = args = None
                continue
            elif t == "unfold":
                if texts[i + 1] != "(":
                    self._expected(i + 1, "(")
                stack.append((_UNFOLD, None, total, op, product, head, args))
                total = op = product = head = args = None
                i += 2
                continue
            elif t == "FT":
                self.pos = i + 1
                v = self._boundary()
                i = self.pos
            else:
                self._fail(i, f"expected an expression, found {t!r}")

            # -- extend the innermost level with the operand v --------------
            while True:
                if head is None:
                    head = v
                elif args is None:
                    args = [v]
                else:
                    args.append(v)
                t = texts[i]
                if kinds[i] in _OPERAND_KINDS or t in _OPERAND_TEXTS:
                    break                               # another argument
                if args is not None:
                    head = App(head, tuple(args))
                    args = None
                product = head if product is None \
                    else BinOp("*", product, head)
                head = None
                if t == "*":
                    i += 1
                    break
                total = product if total is None \
                    else BinOp(op, total, product)
                product = None
                if t == "+" or t == "-":
                    op = t
                    i += 1
                    break
                # The level is complete: its expression closes the
                # innermost open sub-expression.
                if not stack:
                    self.pos = i
                    return total
                e = total
                what, data, total, op, product, head, args = stack.pop()
                if what == _PAREN:
                    if t != ")":
                        self._expected(i, ")")
                    v = e
                    i += 1
                elif what == _TUPLE:
                    data.append(e)
                    if t == ",":
                        stack.append((_TUPLE, data, total, op, product,
                                      head, args))
                        total = op = product = head = args = None
                        i += 1
                        break
                    if t != ">":
                        self._expected(i, ">")
                    v = TupleE(tuple(data))
                    i += 1
                elif what == _LAM:
                    params, phi_in, phi_out = data
                    v = Lam(params, e) if phi_in is None \
                        else StackLam(params, e, phi_in, phi_out)
                elif what == _IF0_COND:
                    if t != "{":
                        self._expected(i, "{")
                    stack.append((_IF0_THEN, e, total, op, product, head,
                                  args))
                    total = op = product = head = args = None
                    i += 1
                    break
                elif what == _IF0_THEN:
                    if t != "}":
                        self._expected(i, "}")
                    if texts[i + 1] != "{":
                        self._expected(i + 1, "{")
                    stack.append((_IF0_ELSE, (data, e), total, op, product,
                                  head, args))
                    total = op = product = head = args = None
                    i += 2
                    break
                elif what == _IF0_ELSE:
                    if t != "}":
                        self._expected(i, "}")
                    v = If0(data[0], data[1], e)
                    i += 1
                else:                           # _PROJ, _FOLD, _UNFOLD
                    if t != ")":
                        self._expected(i, ")")
                    if what == _PROJ:
                        v = Proj(self._number(texts[data][2:], data), e)
                    elif what == _FOLD:
                        v = FFold(data, e)
                    else:
                        v = FUnfold(e)
                    i += 1

    def _lam_header(self):
        """``[phi; phi] (x: t, ...).`` after ``lam``: the parameters, and
        the stack prefixes (``None`` for a plain lambda)."""
        phi_in = phi_out = None
        if self._skip("["):
            phi_in = tuple(self._comma_list(self.ttype, ";"))
            self._take(";")
            phi_out = tuple(self._comma_list(self.ttype, "]"))
            self._take("]")
        texts, kinds = self.texts, self.kinds
        i = self.pos
        if texts[i] != "(":
            self._expected(i, "(")
        i += 1
        params: List[Tuple[str, FType]] = []
        while texts[i] != ")":
            if kinds[i] != "ident":
                self._expected(i, "ident")
            if texts[i + 1] != ":":
                self._expected(i + 1, ":")
            self.pos = i + 2
            params.append((texts[i], self.ftype()))
            i = self.pos
            if texts[i] != ",":
                break
            i += 1
        if texts[i] != ")":
            self._expected(i, ")")
        if texts[i + 1] != ".":
            self._expected(i + 1, ".")
        self.pos = i + 2
        return tuple(params), phi_in, phi_out

    def _boundary(self) -> Boundary:
        """``[t; -n; <phi>](I, H)`` after ``FT``."""
        self._take("[")
        ty = self.ftype()
        delta = StackDelta()
        if self._skip(";"):
            neg = self._skip("-")
            pops = self._int()
            if not neg and pops:
                self._fail(self.pos, "boundary pop count must be written -n")
            self._take(";")
            self._take("<")
            pushes = self._comma_list(self.ttype, ">")
            self._take(">")
            delta = StackDelta(pops, tuple(pushes))
        self._take("]")
        return Boundary(ty, self.component(), delta)

    # -- generic helpers ------------------------------------------------------

    def _comma_list(self, production, closer: str) -> List:
        items: List = []
        if self.texts[self.pos] == closer:
            return items
        while True:
            items.append(production())
            if not self._skip(","):
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
    if p.texts[0] == "(" and p.texts[1] in _COMPONENT_OPENERS:
        tree = p.component()
    else:
        tree = p.fexpr()
    p.expect_eof()
    return tree
