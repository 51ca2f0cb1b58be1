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

Because each language can be nested arbitrarily deep inside the other,
the traversals of both languages cross the boundary.  They are folds
over the one FT grammar of :mod:`repro.walk`, which lists the F forms
here and the T instructions ``import`` and ``protect`` with the rest of
T: where each holds types, sub-terms and labels, and that ``protect``'s
zeta scopes over the rest of its sequence.  What stays here is the part
of those traversals on F *types* (:func:`map_tal_in_ftype`: the T types
inside stack-modifying arrows and lumps, registered with
:mod:`repro.tal.subst`), and F type equality / substitution for
:class:`FStackArrow`, registered with :mod:`repro.f.syntax`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caching import PicklableSlots, intern_singleton
from operator import is_
from typing import Callable, Optional, Tuple

from repro.f.syntax import FExpr, FType, Lam
from repro.f import syntax as f_syntax
from repro.ft.lump import FLump
from repro.tal import subst as tal_subst
from repro.tal import syntax as tal_syntax
from repro.tal.syntax import Component, Instruction, StackTy, TalType

__all__ = [
    "FStackArrow", "StackLam", "Boundary", "StackDelta", "Import",
    "Protect", "Hole", "map_tal_in_ftype",
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
# T types inside F types (the F-type part of T's term traversals)
# ---------------------------------------------------------------------------

def map_tal_in_ftype(ty: FType, f: Callable) -> FType:
    """``ty`` with each T type embedded in it (a stack-modifying arrow's
    prefixes, a lump's fields) mapped through ``f``; ``ty`` itself if
    none changed."""
    inner = lambda t: map_tal_in_ftype(t, f)   # noqa: E731
    if isinstance(ty, FLump):
        parts = (tuple(map(f, ty.items)),)
    elif isinstance(ty, FStackArrow):
        parts = (tuple(map(inner, ty.params)), inner(ty.result),
                 tuple(map(f, ty.phi_in)), tuple(map(f, ty.phi_out)))
    elif isinstance(ty, f_syntax.FArrow):
        parts = (tuple(map(inner, ty.params)), inner(ty.result))
    elif isinstance(ty, f_syntax.FRec):
        parts = (ty.var, inner(ty.body))
    elif isinstance(ty, f_syntax.FTupleT):
        parts = (tuple(map(inner, ty.items)),)
    else:
        return ty  # FTVar / FUnit / FInt carry no T types
    old = [getattr(ty, name) for name in type(ty).__dataclass_fields__]
    return ty if all(map(_same, parts, old)) else type(ty)(*parts)


def _same(new, old) -> bool:
    return new is old or type(new) is tuple and all(map(is_, new, old))


tal_subst.register_ftype_map(map_tal_in_ftype)


# ---------------------------------------------------------------------------
# F type hooks for the stack-modifying arrow
# ---------------------------------------------------------------------------

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


f_syntax.register_ftype_hooks(equal=_stack_arrow_equal,
                              subst=_stack_arrow_subst,
                              ftv=_stack_arrow_ftv)
