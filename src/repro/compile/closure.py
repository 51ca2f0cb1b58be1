"""Closure conversion: F terms to a first-class, environment-explicit IR.

This is the compiler's middle pass.  The source is any core-F term
(higher-order functions, multi-argument lambdas, tuples, iso-recursive
``fold``/``unfold``, ``unit``, ``if0``, the full primitive set); the
output is a :class:`ClosProgram` in which

* every lambda has been *hoisted* into a :class:`CodeDef` -- a
  top-level code definition with explicit parameters **and** an explicit
  environment tuple listing the variables it captures;
* every variable occurrence is resolved to how the current frame can
  reach it: its own parameter (:class:`CParam`), a slot of its
  environment tuple (:class:`CCaptureRef`), or a variable left free by
  the caller (:class:`CFree`, only for open compilations driven through
  an explicit ``gamma``);
* every node is annotated with its F type, so the code generator never
  re-runs inference.

The pass is a pure function (:func:`closure_convert`); the IR pretty-
prints via :meth:`ClosProgram.pretty` (surfaced by ``funtal compile
--ir``).  Capture lists are sorted by name, so conversion is
deterministic and compiled artifacts can be content-addressed.  The
program also records its interface arrows
(:func:`repro.compile.typerep.interface_arrows`), which decide how the
code generator represents each closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.f.syntax import (
    App, BinOp, FArrow, FExpr, Fold, free_vars, FInt, FTupleT, FType, FUnit,
    If0, IntE, Lam, Proj, TupleE, UnitE, Var,
)
from repro.compile.names import NameSupply
from repro.compile.typerep import interface_arrows

__all__ = [
    "CExpr", "CInt", "CUnit", "CParam", "CCaptureRef", "CFree", "CBin",
    "CIf0", "CTuple", "CProj", "CFold", "CUnfold", "CCall", "CClos",
    "CodeDef", "ClosProgram", "closure_convert",
]


# ---------------------------------------------------------------------------
# The IR
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CExpr:
    """Base class: every node carries its F type."""

    ty: FType


@dataclass(frozen=True)
class CInt(CExpr):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class CUnit(CExpr):
    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True)
class CParam(CExpr):
    """A parameter of the current frame (index = declaration order)."""

    name: str
    index: int

    def __str__(self) -> str:
        return f"{self.name}#p{self.index}"


@dataclass(frozen=True)
class CCaptureRef(CExpr):
    """Slot ``index`` of the current frame's environment tuple."""

    name: str
    index: int

    def __str__(self) -> str:
        return f"{self.name}#env[{self.index}]"


@dataclass(frozen=True)
class CFree(CExpr):
    """A variable the *whole compilation* leaves free (open terms)."""

    name: str

    def __str__(self) -> str:
        return f"{self.name}#free"


@dataclass(frozen=True)
class CBin(CExpr):
    op: str
    left: CExpr
    right: CExpr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class CIf0(CExpr):
    cond: CExpr
    then: CExpr
    els: CExpr

    def __str__(self) -> str:
        return f"if0 {self.cond} then {self.then} else {self.els}"


@dataclass(frozen=True)
class CTuple(CExpr):
    items: Tuple[CExpr, ...]

    def __str__(self) -> str:
        return "<" + ", ".join(str(i) for i in self.items) + ">"


@dataclass(frozen=True)
class CProj(CExpr):
    index: int
    body: CExpr

    def __str__(self) -> str:
        return f"pi{self.index}({self.body})"


@dataclass(frozen=True)
class CFold(CExpr):
    body: CExpr

    def __str__(self) -> str:
        return f"fold[{self.ty}] {self.body}"


@dataclass(frozen=True)
class CUnfold(CExpr):
    body: CExpr

    def __str__(self) -> str:
        return f"unfold {self.body}"


@dataclass(frozen=True)
class CCall(CExpr):
    fn: CExpr
    args: Tuple[CExpr, ...]

    def __str__(self) -> str:
        return f"{self.fn}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class CClos(CExpr):
    """Make a closure: ``code_id`` paired with its environment tuple.

    ``captures`` are the environment *initializers*, resolved in the
    frame where the closure is created -- each is a :class:`CParam`,
    :class:`CCaptureRef`, or :class:`CFree`, in the order of the
    definition's capture list.  A closed lambda has no captures and
    compiles to a bare code pointer.
    """

    code_id: str
    captures: Tuple[CExpr, ...]

    def __str__(self) -> str:
        if not self.captures:
            return f"clos {self.code_id}"
        env = ", ".join(str(c) for c in self.captures)
        return f"clos {self.code_id} <{env}>"


@dataclass(frozen=True)
class CodeDef:
    """A hoisted lambda: explicit parameters, captures, typed body."""

    code_id: str
    params: Tuple[Tuple[str, FType], ...]
    captures: Tuple[Tuple[str, FType], ...]
    body: CExpr
    arrow: FArrow

    def pretty(self) -> str:
        params = ", ".join(f"{x}: {t}" for x, t in self.params)
        env = ", ".join(f"{x}: {t}" for x, t in self.captures)
        head = f"code {self.code_id}({params})"
        if env:
            head += f" env <{env}>"
        return f"{head} : {self.arrow} =\n  {self.body}"


@dataclass(frozen=True)
class ClosProgram:
    """The pass output: hoisted definitions plus the main term.

    ``main_code`` names the entry definition when the source was itself
    a lambda (the common case); ``main`` is the converted body
    expression when the source was a non-lambda term.
    """

    defs: Tuple[CodeDef, ...]
    ty: FType
    main: Optional[CExpr] = None
    main_code: Optional[str] = None
    free: Tuple[Tuple[str, FType], ...] = ()
    interface: FrozenSet[FType] = frozenset()

    def get(self, code_id: str) -> CodeDef:
        for d in self.defs:
            if d.code_id == code_id:
                return d
        raise KeyError(code_id)

    def pretty(self) -> str:
        iface = ", ".join(sorted(str(t) for t in self.interface))
        parts = [f"interface arrows: {iface or 'none'}"]
        parts += [d.pretty() for d in self.defs]
        if self.main_code is not None:
            parts.append(f"main = clos {self.main_code}")
        else:
            parts.append(f"main : {self.ty} =\n  {self.main}")
        return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------

@dataclass
class _Frame:
    """Name resolution for one lambda (or the main term)."""

    params: Dict[str, Tuple[int, FType]] = field(default_factory=dict)
    captures: Dict[str, Tuple[int, FType]] = field(default_factory=dict)


class _Converter:
    def __init__(self, supply: NameSupply,
                 free: Dict[str, FType]):
        self.supply = supply
        self.free = free
        self.defs: List[CodeDef] = []

    # -- variable lookup ------------------------------------------------

    def lookup(self, name: str, frame: _Frame) -> CExpr:
        if name in frame.params:
            idx, ty = frame.params[name]
            return CParam(ty, name, idx)
        if name in frame.captures:
            idx, ty = frame.captures[name]
            return CCaptureRef(ty, name, idx)
        return CFree(self.free[name], name)

    # -- lambdas --------------------------------------------------------

    def convert_lambda(self, e: Lam, frame: _Frame) -> CClos:
        # Resolve each free variable in the *enclosing* frame; this both
        # builds the environment initializers and determines the capture
        # types.  Variables the whole compilation leaves free do not enter
        # the environment: they stay free at every depth and the caller
        # substitutes them (so a body reference compiles to a direct
        # import instead of an environment projection).
        resolved = [(x, self.lookup(x, frame))
                    for x in sorted(free_vars(e))]
        captured = [(x, r) for x, r in resolved if not isinstance(r, CFree)]
        inner = _Frame(
            params={x: (i, t) for i, (x, t) in enumerate(e.params)},
            captures={x: (i, r.ty) for i, (x, r) in enumerate(captured)})
        code_id = self.supply.fresh("f")
        body = self.convert(e.body, inner)
        arrow = FArrow(tuple(t for _, t in e.params), body.ty)
        definition = CodeDef(
            code_id,
            tuple(e.params),
            tuple((x, r.ty) for x, r in captured),
            body, arrow)
        self.defs.append(definition)
        return CClos(arrow, code_id, tuple(r for _, r in captured))

    # -- expressions ----------------------------------------------------

    def convert(self, e: FExpr, frame: _Frame) -> CExpr:
        if isinstance(e, Var):
            return self.lookup(e.name, frame)
        if isinstance(e, IntE):
            return CInt(FInt(), e.value)
        if isinstance(e, UnitE):
            return CUnit(FUnit())
        if isinstance(e, BinOp):
            return CBin(FInt(), e.op, self.convert(e.left, frame),
                        self.convert(e.right, frame))
        if isinstance(e, If0):
            cond = self.convert(e.cond, frame)
            then = self.convert(e.then, frame)
            els = self.convert(e.els, frame)
            return CIf0(then.ty, cond, then, els)
        if isinstance(e, Lam):
            return self.convert_lambda(e, frame)
        if isinstance(e, App):
            fn = self.convert(e.fn, frame)
            args = tuple(self.convert(a, frame) for a in e.args)
            return CCall(fn.ty.result, fn, args)
        if isinstance(e, TupleE):
            items = tuple(self.convert(i, frame) for i in e.items)
            return CTuple(FTupleT(tuple(i.ty for i in items)), items)
        if isinstance(e, Proj):
            body = self.convert(e.body, frame)
            return CProj(body.ty.items[e.index], e.index, body)
        if isinstance(e, Fold):
            return CFold(e.ann, self.convert(e.body, frame))
        body = self.convert(e.body, frame)      # typed F leaves: unfold
        return CUnfold(body.ty.unroll(), body)


def closure_convert(e: FExpr,
                    gamma: Optional[Dict[str, FType]] = None,
                    supply: Optional[NameSupply] = None) -> ClosProgram:
    """Convert a typechecked core-F term into a :class:`ClosProgram`.

    The term is not checked again: its IR annotations are computed on
    the assumption that it types under ``gamma``.

    ``gamma`` types any variables the term leaves free (used when the
    JIT compiles a lambda in place under an enclosing binder); the
    converted program then records them in :attr:`ClosProgram.free`.
    """
    conv = _Converter(supply or NameSupply(), dict(gamma or {}))
    frame = _Frame()
    used_free = tuple(sorted(
        (x for x in free_vars(e) if x in conv.free)))
    free = tuple((x, conv.free[x]) for x in used_free)
    roots = [t for _, t in free]
    if isinstance(e, Lam) and type(e) is Lam:
        clos = conv.convert_lambda(e, frame)
        roots += list(clos.ty.params) + [clos.ty.result]
        return ClosProgram(tuple(conv.defs), clos.ty,
                           main_code=clos.code_id, free=free,
                           interface=interface_arrows(roots, conv.defs))
    main = conv.convert(e, frame)
    roots.append(main.ty)
    return ClosProgram(tuple(conv.defs), main.ty, main=main, free=free,
                       interface=interface_arrows(roots, conv.defs))
