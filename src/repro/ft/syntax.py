"""Abstract syntax of the FT multi-language (paper Fig 6).

FT is a Matthews-Findler multi-language: the syntactic categories of F and
T are merged, and *boundary* forms mediate between them:

* :class:`Boundary` -- ``tauFT e``: a T component used as an F expression
  of type ``tau`` (T inside, F outside);
* :class:`Import` -- ``import rd, sigma TFtau e; I``: an F expression used
  inside T, its translated value landing in ``rd`` (F inside, T outside);
* :class:`Protect` -- ``protect phi, zeta; I``: abstracts the current stack
  tail behind a fresh stack variable for the rest of the component;
* :class:`StackLam` / :class:`FStackArrow` -- stack-modifying lambdas
  ``lam[phi_i; phi_o](x:tau).e`` and their arrow type, which let embedded
  assembly legally change the protected stack;
* the return marker ``out`` (already in :mod:`repro.tal.syntax`) marks F
  code, which "returns" by being a value.

Because each language can be nested arbitrarily deep inside the other, the
traversal functions of both languages need to cross the boundary.  This
module wires those crossings up:

* T type substitution / free-variable hooks for ``import``/``protect`` are
  registered with :mod:`repro.tal.subst`;
* location renaming for ``import`` is registered with
  :mod:`repro.tal.machine`;
* the F-term traversals here and in :mod:`repro.f.syntax` walk the
  grammar of :mod:`repro.walk`, which says where F terms hold T types
  and where a component holds F terms;
* F type equality / substitution handle :class:`FStackArrow` via the hook
  registries added here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.caching import PicklableSlots, intern_singleton
from typing import Callable, Dict, Optional, Set, Tuple

from repro import walk
from repro.f.syntax import FExpr, FType, Lam
from repro.f import syntax as f_syntax
from repro.ft.lump import LumpVal
from repro.tal import syntax as tal_syntax
from repro.tal.machine import register_loc_renamer
from repro.tal.subst import (
    Subst, free_type_vars, register_binding_instr, register_simple_instr,
    subst_component, subst_instr_seq, subst_stack, subst_ty,
)
from repro.tal.syntax import (
    Component, InstrSeq, Instruction, KIND_ZETA, Loc, StackTy, TalType,
)

__all__ = [
    "FStackArrow", "StackLam", "Boundary", "StackDelta", "Import",
    "Protect", "Hole", "subst_tal_in_fexpr", "rename_locs_in_fexpr",
    "tal_free_type_vars_of_fexpr",
]


# ---------------------------------------------------------------------------
# Types: the stack-modifying arrow
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FStackArrow(FType):
    """The stack-modifying arrow ``(tau...) [phi_i; phi_o] -> tau'``.

    ``phi_i`` is the stack prefix (T value types, top first) the function
    requires on call; ``phi_o`` is the prefix it leaves in place of
    ``phi_i`` on return.  The ordinary arrow is the special case where both
    prefixes are empty.
    """

    params: Tuple[FType, ...]
    result: FType
    phi_in: Tuple[TalType, ...] = ()
    phi_out: Tuple[TalType, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "phi_in", tuple(self.phi_in))
        object.__setattr__(self, "phi_out", tuple(self.phi_out))

    def __str__(self) -> str:
        args = ", ".join(str(p) for p in self.params)
        pin = ", ".join(str(t) for t in self.phi_in)
        pout = ", ".join(str(t) for t in self.phi_out)
        return f"({args}) [{pin}; {pout}] -> {self.result}"


def _stack_arrow_equal(a: FType, b: FType, env) -> Optional[bool]:
    from repro.f.syntax import ftype_equal
    from repro.tal.equality import types_equal

    if isinstance(a, FStackArrow) != isinstance(b, FStackArrow):
        return False
    if not isinstance(a, FStackArrow):
        return None
    assert isinstance(b, FStackArrow)
    if (len(a.params) != len(b.params) or len(a.phi_in) != len(b.phi_in)
            or len(a.phi_out) != len(b.phi_out)):
        return False
    return (all(ftype_equal(pa, pb, env)
                for pa, pb in zip(a.params, b.params))
            and ftype_equal(a.result, b.result, env)
            and all(types_equal(ta, tb)
                    for ta, tb in zip(a.phi_in, b.phi_in))
            and all(types_equal(ta, tb)
                    for ta, tb in zip(a.phi_out, b.phi_out)))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class StackDelta(PicklableSlots):
    """A boundary's declared stack effect: pop ``pops`` exposed slots, then
    push ``pushes`` (top first).

    The paper's boundary rule infers the component's output stack ``sigma'``
    from its ``end{tauT; sigma'}`` return marker; since a checker must know
    the marker *before* checking the component, we record the effect
    relative to the incoming stack.  The identity delta (the default) covers
    every boundary that restores the stack -- all of Fig 10's generated
    code and most programmer-written boundaries.
    """

    pops: int = 0
    pushes: Tuple[TalType, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "pushes", tuple(self.pushes))

    def apply(self, sigma: StackTy) -> StackTy:
        return sigma.drop(self.pops).cons(*self.pushes)

    def __str__(self) -> str:
        pushes = ", ".join(str(t) for t in self.pushes)
        return f"[-{self.pops}; +<{pushes}>]"


@dataclass(frozen=True, slots=True)
class Boundary(FExpr):
    """``tauFT e`` -- a T component embedded in F at type ``tau``."""

    ty: FType
    comp: Component
    delta: StackDelta = StackDelta()

    def __str__(self) -> str:
        if self.delta == StackDelta():
            return f"FT[{self.ty}]{self.comp}"
        pushes = ", ".join(str(t) for t in self.delta.pushes)
        return f"FT[{self.ty}; {self.delta.pops}; <{pushes}>]{self.comp}"


@intern_singleton
@dataclass(frozen=True, slots=True)
class Hole(FExpr):
    """The machine's resumption placeholder ``[]`` -- not surface syntax.

    An F computation waiting on a boundary crossing is the FT machine's
    evaluation context with a ``Hole`` at its focus, where the
    crossing's value will land; a checkpoint stores that context as a
    plain term and resume plugs the hole.  A hole is not a value and has
    no typing rule; it only ever occurs inside suspended machine states.
    """

    def __str__(self) -> str:
        return "[]"


@dataclass(frozen=True, slots=True)
class StackLam(Lam):
    """A stack-modifying lambda ``lam[phi_i; phi_o](x:tau, ...).e``."""

    phi_in: Tuple[TalType, ...] = ()
    phi_out: Tuple[TalType, ...] = ()

    def __post_init__(self) -> None:
        # Explicit base call: ``dataclass(slots=True)`` replaces the class
        # object, so zero-argument super() (which closes over the original
        # ``__class__`` cell) would not resolve here.
        Lam.__post_init__(self)
        object.__setattr__(self, "phi_in", tuple(self.phi_in))
        object.__setattr__(self, "phi_out", tuple(self.phi_out))

    def __str__(self) -> str:
        binder = ", ".join(f"{x}: {t}" for x, t in self.params)
        pin = ", ".join(str(t) for t in self.phi_in)
        pout = ", ".join(str(t) for t in self.phi_out)
        return f"lam[{pin}; {pout}] ({binder}). {self.body}"


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Import(Instruction):
    """``import rd, sigma TFtau e`` -- run the F expression ``e``, translate
    its value to T at type ``tau``, and put it in ``rd``.

    ``protected`` is the stack tail that embedded T code inside ``e`` may
    not touch; the current return marker must live inside it (or be
    ``end{...}``)."""

    rd: str
    protected: StackTy
    ty: FType
    expr: FExpr

    def __post_init__(self) -> None:
        tal_syntax.check_register(self.rd)

    def __str__(self) -> str:
        return f"import {self.rd}, {self.protected} TF[{self.ty}] ({self.expr})"


@dataclass(frozen=True, slots=True)
class Protect(Instruction):
    """``protect phi, zeta`` -- leave the prefix ``phi`` visible and
    abstract the rest of the stack as ``zeta`` for the rest of the
    component (irreversibly)."""

    phi: Tuple[TalType, ...]
    zeta: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", tuple(self.phi))

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.phi)
        return f"protect <{inner}>, {self.zeta}"


# ---------------------------------------------------------------------------
# T-type traversals through F forms (for import/protect hooks)
# ---------------------------------------------------------------------------

def subst_tal_in_ftype(ty: FType, s: Subst) -> FType:
    """Apply a T type substitution to the T types embedded in an F type
    (stack-modifying arrows' prefixes and lump field types)."""
    from repro.ft.lump import FLump

    if isinstance(ty, FLump):
        return FLump(tuple(subst_ty(t, s) for t in ty.items))
    if isinstance(ty, FStackArrow):
        return FStackArrow(
            tuple(subst_tal_in_ftype(p, s) for p in ty.params),
            subst_tal_in_ftype(ty.result, s),
            tuple(subst_ty(t, s) for t in ty.phi_in),
            tuple(subst_ty(t, s) for t in ty.phi_out))
    if isinstance(ty, f_syntax.FArrow):
        return f_syntax.FArrow(
            tuple(subst_tal_in_ftype(p, s) for p in ty.params),
            subst_tal_in_ftype(ty.result, s))
    if isinstance(ty, f_syntax.FRec):
        return f_syntax.FRec(ty.var, subst_tal_in_ftype(ty.body, s))
    if isinstance(ty, f_syntax.FTupleT):
        return f_syntax.FTupleT(
            tuple(subst_tal_in_ftype(t, s) for t in ty.items))
    return ty  # FTVar / FUnit / FInt carry no T types


def subst_tal_in_fexpr(e: FExpr, s: Subst) -> FExpr:
    """Apply a T type substitution throughout an FT expression.

    Needed because an ``import`` instruction's F expression can mention the
    enclosing component's type variables inside nested boundaries, lambda
    annotations, and ``halt``/``call`` annotations."""
    ftype, ttype = partial(subst_tal_in_ftype, s=s), partial(subst_ty, s=s)

    def pre(x: FExpr):
        typed = walk.map_types(x, ftype, ttype)
        if isinstance(x, Boundary):
            comp = subst_component(x.comp, s)
            return typed if comp is x.comp else \
                Boundary(typed.ty, comp, typed.delta)
        return None if typed is x else walk.Descend(typed)

    return walk.fold(e, pre, unknown=_not_ft)


def tal_free_type_vars_of_fexpr(e: FExpr) -> Set[Tuple[str, str]]:
    """Free T type variables occurring in an FT expression."""
    acc: Set[Tuple[str, str]] = set()
    ftype = lambda t: acc.update(_tal_ftv_of_ftype(t)) or t
    ttype = lambda t: acc.update(free_type_vars(t)) or t
    for x in walk.preorder(e, unknown=_not_ft):
        walk.map_types(x, ftype, ttype)
        if isinstance(x, Boundary):
            acc.update(free_type_vars(x.comp))
    return acc


def _not_ft(e: FExpr):
    raise TypeError(f"not an FT expression: {e!r}")


def _tal_ftv_of_ftype(ty: FType) -> Set[Tuple[str, str]]:
    from repro.ft.lump import FLump

    acc: Set[Tuple[str, str]] = set()
    if isinstance(ty, FLump):
        for t in ty.items:
            acc |= free_type_vars(t)
        return acc
    if isinstance(ty, FStackArrow):
        for t in ty.phi_in + ty.phi_out:
            acc |= free_type_vars(t)
        for p in ty.params:
            acc |= _tal_ftv_of_ftype(p)
        acc |= _tal_ftv_of_ftype(ty.result)
        return acc
    if isinstance(ty, f_syntax.FArrow):
        for p in ty.params:
            acc |= _tal_ftv_of_ftype(p)
        return acc | _tal_ftv_of_ftype(ty.result)
    if isinstance(ty, f_syntax.FRec):
        return _tal_ftv_of_ftype(ty.body)
    if isinstance(ty, f_syntax.FTupleT):
        for t in ty.items:
            acc |= _tal_ftv_of_ftype(t)
        return acc
    return acc


def rename_locs_in_fexpr(e: FExpr, mapping: Dict[Loc, Loc],
                         rename_locs: Callable) -> FExpr:
    """Rename heap labels inside an FT expression (boundary components
    and lump handles).

    Sharing-preserving like :func:`repro.tal.machine.rename_locs`: a
    subterm with no renamed label comes back as the same object.  A
    component's own labels move along with their references."""
    rename = partial(rename_locs, mapping=mapping)

    def pre(x: FExpr):
        if isinstance(x, LumpVal):
            new = mapping.get(x.loc)
            return x if new is None or new is x.loc else LumpVal(new)
        if isinstance(x, Boundary):
            comp = walk.map_component(x.comp, rename, rename,
                                      lambda loc: mapping.get(loc, loc))
            return x if comp is x.comp else Boundary(x.ty, comp, x.delta)
        return None

    return walk.fold(e, pre, unknown=_not_ft)


# ---------------------------------------------------------------------------
# Hook registration
# ---------------------------------------------------------------------------

def _import_subst(i: Import, s: Subst) -> Import:
    return Import(i.rd, subst_stack(i.protected, s),
                  subst_tal_in_ftype(i.ty, s), subst_tal_in_fexpr(i.expr, s))


def _import_ftv(i: Import) -> Set[Tuple[str, str]]:
    acc = free_type_vars(i.protected)
    acc |= tal_free_type_vars_of_fexpr(i.expr)
    acc |= _tal_ftv_of_ftype(i.ty)
    return acc


def _protect_subst(i: Protect, rest: InstrSeq,
                   s: Subst) -> Tuple[Protect, InstrSeq]:
    from repro.tal.subst import _avoid_capture_in_rest  # shared helper

    phi = tuple(subst_ty(t, s) for t in i.phi)
    zeta, rest, s_rest = _avoid_capture_in_rest(KIND_ZETA, i.zeta, rest, s)
    return Protect(phi, zeta), subst_instr_seq(rest, s_rest)


def _protect_ftv(i: Protect) -> Set[Tuple[str, str]]:
    acc: Set[Tuple[str, str]] = set()
    for t in i.phi:
        acc |= free_type_vars(t)
    return acc


def _import_rename(i: Import, mapping, rename_locs) -> Import:
    expr = rename_locs_in_fexpr(i.expr, mapping, rename_locs)
    return i if expr is i.expr else Import(i.rd, i.protected, i.ty, expr)


def _stack_arrow_subst(ty: FType, var: str,
                       replacement: FType) -> Optional[FType]:
    if not isinstance(ty, FStackArrow):
        return None
    return FStackArrow(
        tuple(f_syntax.subst_ftype(p, var, replacement) for p in ty.params),
        f_syntax.subst_ftype(ty.result, var, replacement),
        ty.phi_in, ty.phi_out)


def _stack_arrow_ftv(ty: FType) -> Optional[frozenset]:
    if not isinstance(ty, FStackArrow):
        return None
    acc = f_syntax.free_tvars(ty.result)
    for p in ty.params:
        acc |= f_syntax.free_tvars(p)
    return acc


register_simple_instr(Import, _import_subst, _import_ftv)
register_binding_instr(Protect, _protect_subst, _protect_ftv,
                       lambda i: (KIND_ZETA, i.zeta))
register_loc_renamer(Import, _import_rename)
f_syntax.register_ftype_hooks(equal=_stack_arrow_equal,
                              subst=_stack_arrow_subst,
                              ftv=_stack_arrow_ftv)
