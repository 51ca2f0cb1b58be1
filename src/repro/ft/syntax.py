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
* F term substitution descends through boundaries via
  :func:`subst_boundary` (called from :func:`repro.f.syntax.subst_expr`);
* F type equality / substitution handle :class:`FStackArrow` via the hook
  registries added here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.caching import PicklableSlots, intern_singleton
from typing import Callable, Dict, Optional, Set, Tuple

from repro.f.syntax import (
    App, BinOp, FArrow, FExpr, Fold, FType, If0, IntE, Lam, Proj, TupleE,
    Unfold, UnitE, Var,
)
from repro.f import syntax as f_syntax
from repro.tal import syntax as tal_syntax
from repro.tal.machine import register_loc_renamer, share_tuple
from repro.tal.subst import (
    Subst, free_type_vars, register_binding_instr, register_simple_instr,
    subst_component, subst_instr_seq, subst_stack, subst_ty,
)
from repro.tal.syntax import (
    Component, InstrSeq, Instruction, KIND_ZETA, Loc, StackTy, TalType,
)

__all__ = [
    "FStackArrow", "StackLam", "Boundary", "StackDelta", "Import",
    "Protect", "Hole", "subst_boundary", "ft_free_vars",
    "subst_tal_in_fexpr", "rename_locs_in_fexpr",
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
# F-side traversals across boundaries
# ---------------------------------------------------------------------------

def subst_boundary(e: Boundary, var: str, replacement: FExpr,
                   subst_expr: Callable) -> Boundary:
    """Substitute an F term variable inside a boundary's T component
    (it can occur free in ``import`` expressions)."""
    return Boundary(e.ty, subst_fexpr_in_component(
        e.comp, var, replacement, subst_expr), e.delta)


def subst_fexpr_in_component(comp: Component, var: str, replacement: FExpr,
                             subst_expr: Callable) -> Component:
    def in_seq(iseq: InstrSeq) -> InstrSeq:
        instrs = []
        for i in iseq.instrs:
            if isinstance(i, Import):
                instrs.append(Import(i.rd, i.protected, i.ty,
                                     subst_expr(i.expr, var, replacement)))
            else:
                instrs.append(i)
        return InstrSeq(tuple(instrs), iseq.term)

    heap = []
    for loc, h in comp.heap:
        if isinstance(h, tal_syntax.HCode):
            heap.append((loc, tal_syntax.HCode(
                h.delta, h.chi, h.sigma, h.q, in_seq(h.instrs))))
        else:
            heap.append((loc, h))
    return Component(in_seq(comp.instrs), tuple(heap))


def ft_free_vars(e: FExpr) -> frozenset:
    """Free F term variables of an FT expression (crossing boundaries)."""
    from repro.ft.lump import LumpVal

    if isinstance(e, LumpVal):
        return frozenset()
    if isinstance(e, Boundary):
        return _component_free_vars(e.comp)
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, (UnitE, IntE)):
        return frozenset()
    if isinstance(e, BinOp):
        return ft_free_vars(e.left) | ft_free_vars(e.right)
    if isinstance(e, If0):
        return (ft_free_vars(e.cond) | ft_free_vars(e.then)
                | ft_free_vars(e.els))
    if isinstance(e, Lam):
        bound = {x for x, _ in e.params}
        return ft_free_vars(e.body) - bound
    if isinstance(e, App):
        acc = ft_free_vars(e.fn)
        for a in e.args:
            acc |= ft_free_vars(a)
        return acc
    if isinstance(e, (Fold, Unfold, Proj)):
        return ft_free_vars(e.body)
    if isinstance(e, TupleE):
        acc = frozenset()
        for x in e.items:
            acc |= ft_free_vars(x)
        return acc
    raise TypeError(f"not an FT expression: {e!r}")


def _component_free_vars(comp: Component) -> frozenset:
    acc: frozenset = frozenset()

    def in_seq(iseq: InstrSeq) -> None:
        nonlocal acc
        for i in iseq.instrs:
            if isinstance(i, Import):
                acc |= ft_free_vars(i.expr)

    in_seq(comp.instrs)
    for _, h in comp.heap:
        if isinstance(h, tal_syntax.HCode):
            in_seq(h.instrs)
    return acc


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
    from repro.ft.lump import LumpVal

    if isinstance(e, LumpVal):
        return e
    if isinstance(e, Boundary):
        return Boundary(subst_tal_in_ftype(e.ty, s),
                        subst_component(e.comp, s),
                        StackDelta(e.delta.pops,
                                   tuple(subst_ty(t, s)
                                         for t in e.delta.pushes)))
    if isinstance(e, (Var, UnitE, IntE)):
        return e
    if isinstance(e, BinOp):
        return BinOp(e.op, subst_tal_in_fexpr(e.left, s),
                     subst_tal_in_fexpr(e.right, s))
    if isinstance(e, If0):
        return If0(subst_tal_in_fexpr(e.cond, s),
                   subst_tal_in_fexpr(e.then, s),
                   subst_tal_in_fexpr(e.els, s))
    if isinstance(e, StackLam):
        return StackLam(
            tuple((x, subst_tal_in_ftype(t, s)) for x, t in e.params),
            subst_tal_in_fexpr(e.body, s),
            tuple(subst_ty(t, s) for t in e.phi_in),
            tuple(subst_ty(t, s) for t in e.phi_out))
    if isinstance(e, Lam):
        return Lam(tuple((x, subst_tal_in_ftype(t, s)) for x, t in e.params),
                   subst_tal_in_fexpr(e.body, s))
    if isinstance(e, App):
        return App(subst_tal_in_fexpr(e.fn, s),
                   tuple(subst_tal_in_fexpr(a, s) for a in e.args))
    if isinstance(e, Fold):
        return Fold(subst_tal_in_ftype(e.ann, s),
                    subst_tal_in_fexpr(e.body, s))
    if isinstance(e, Unfold):
        return Unfold(subst_tal_in_fexpr(e.body, s))
    if isinstance(e, TupleE):
        return TupleE(tuple(subst_tal_in_fexpr(x, s) for x in e.items))
    if isinstance(e, Proj):
        return Proj(e.index, subst_tal_in_fexpr(e.body, s))
    raise TypeError(f"not an FT expression: {e!r}")


def tal_free_type_vars_of_fexpr(e: FExpr) -> Set[Tuple[str, str]]:
    """Free T type variables occurring in an FT expression."""
    from repro.ft.lump import LumpVal

    acc: Set[Tuple[str, str]] = set()
    if isinstance(e, LumpVal):
        return acc
    if isinstance(e, Boundary):
        acc |= free_type_vars(e.comp)
        acc |= _tal_ftv_of_ftype(e.ty)
        for t in e.delta.pushes:
            acc |= free_type_vars(t)
        return acc
    if isinstance(e, (Var, UnitE, IntE)):
        return acc
    if isinstance(e, BinOp):
        return (tal_free_type_vars_of_fexpr(e.left)
                | tal_free_type_vars_of_fexpr(e.right))
    if isinstance(e, If0):
        return (tal_free_type_vars_of_fexpr(e.cond)
                | tal_free_type_vars_of_fexpr(e.then)
                | tal_free_type_vars_of_fexpr(e.els))
    if isinstance(e, StackLam):
        acc = tal_free_type_vars_of_fexpr(e.body)
        for t in e.phi_in + e.phi_out:
            acc |= free_type_vars(t)
        for _, t in e.params:
            acc |= _tal_ftv_of_ftype(t)
        return acc
    if isinstance(e, Lam):
        acc = tal_free_type_vars_of_fexpr(e.body)
        for _, t in e.params:
            acc |= _tal_ftv_of_ftype(t)
        return acc
    if isinstance(e, App):
        acc = tal_free_type_vars_of_fexpr(e.fn)
        for a in e.args:
            acc |= tal_free_type_vars_of_fexpr(a)
        return acc
    if isinstance(e, Fold):
        return (_tal_ftv_of_ftype(e.ann)
                | tal_free_type_vars_of_fexpr(e.body))
    if isinstance(e, (Unfold, Proj)):
        return tal_free_type_vars_of_fexpr(e.body)
    if isinstance(e, TupleE):
        for x in e.items:
            acc |= tal_free_type_vars_of_fexpr(x)
        return acc
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
    subterm with no renamed label comes back as the same object."""
    from repro.ft.lump import LumpVal

    def go(x: FExpr) -> FExpr:
        return rename_locs_in_fexpr(x, mapping, rename_locs)

    if isinstance(e, LumpVal):
        new = mapping.get(e.loc)
        return e if new is None or new is e.loc else LumpVal(new)
    if isinstance(e, Boundary):
        comp = _rename_component(e.comp, mapping, rename_locs)
        return e if comp is e.comp else Boundary(e.ty, comp, e.delta)
    if isinstance(e, (Var, UnitE, IntE)):
        return e
    if isinstance(e, BinOp):
        left, right = go(e.left), go(e.right)
        if left is e.left and right is e.right:
            return e
        return BinOp(e.op, left, right)
    if isinstance(e, If0):
        cond, then, els = go(e.cond), go(e.then), go(e.els)
        if cond is e.cond and then is e.then and els is e.els:
            return e
        return If0(cond, then, els)
    if isinstance(e, (Lam, Fold, Unfold, Proj)):
        body = go(e.body)
        if body is e.body:
            return e
        if isinstance(e, StackLam):
            return StackLam(e.params, body, e.phi_in, e.phi_out)
        if isinstance(e, Lam):
            return Lam(e.params, body)
        if isinstance(e, Fold):
            return Fold(e.ann, body)
        if isinstance(e, Unfold):
            return Unfold(body)
        return Proj(e.index, body)
    if isinstance(e, App):
        fn = go(e.fn)
        args = share_tuple(e.args, tuple(go(a) for a in e.args))
        if fn is e.fn and args is e.args:
            return e
        return App(fn, args)
    if isinstance(e, TupleE):
        items = share_tuple(e.items, tuple(go(x) for x in e.items))
        return e if items is e.items else TupleE(items)
    raise TypeError(f"not an FT expression: {e!r}")


def _rename_component(comp: Component, mapping, rename_locs) -> Component:
    # Heap entry *keys* are renamed along with references: a mapping that
    # covers a component's own labels must move the binding occurrence
    # too, or every renamed reference dangles.  Mappings that only touch
    # labels bound elsewhere (the machine's load-time freshening) leave
    # the keys alone via the ``get`` default.  An untouched component
    # comes back as the same object.
    instrs = rename_locs(comp.instrs, mapping)
    heap = tuple((mapping.get(loc, loc), rename_locs(h, mapping))
                 for loc, h in comp.heap)
    if instrs is comp.instrs and all(
            l1 is l2 and h1 is h2
            for (l1, h1), (l2, h2) in zip(comp.heap, heap)):
        return comp
    return Component(instrs, heap)


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
