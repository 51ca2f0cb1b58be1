"""The FT boundary type translation ``tau  |->  tauT`` (paper Fig 9).

The translation fixes the cross-language calling convention:

* base types and type variables map to themselves;
* ``mu`` and tuple types map structurally, with F tuples becoming
  *immutable* (``box``) T heap tuples;
* an arrow ``(tau_1, ..., tau_n) -> tau'`` becomes a code pointer that

  - abstracts a stack tail ``zeta`` and a return marker ``eps``,
  - takes its arguments on the stack, last argument on top
    (``tau_nT :: ... :: tau_1T :: zeta``),
  - takes its return continuation in ``ra`` at type
    ``box forall[].{r1: tau'T; zeta} eps``, and
  - has return marker ``ra``;

* a stack-modifying arrow additionally threads the declared prefixes:
  ``phi_i`` sits under the arguments on entry and the continuation's stack
  is ``phi_o :: zeta``.

Binder names are fixed (``z``/``e``); nested arrows shadow them, which is
harmless because T type equality is alpha-equivalence
(:mod:`repro.tal.equality`).
"""

from __future__ import annotations

from repro.caching import LRUCache
from repro.errors import FTTypeError
from repro.f.syntax import (
    FArrow, FInt, FRec, FTupleT, FType, FTVar, FUnit,
)
from repro.ft.lump import FLump
from repro.ft.syntax import FStackArrow
from repro.tal.syntax import (
    CodeType, DeltaBind, KIND_EPS, KIND_ZETA, QEps, QReg, RegFileTy,
    StackTy, TalType, TBox, TInt, TRec, TRef, TupleTy, TUnit, TVar,
)

__all__ = ["type_translation", "arrow_code_type", "continuation_type"]

#: Fixed binder names used by every generated code type.
ZETA = "z"
EPS = "e"


def continuation_type(result: TalType, out_stack: StackTy,
                      eps: str = EPS) -> TBox:
    """``box forall[].{r1: result; out_stack} eps`` -- the calling
    convention's return-continuation type."""
    return TBox(CodeType((), RegFileTy.of(r1=result), out_stack, QEps(eps)))


def arrow_code_type(param_types, result: TalType,
                    phi_in=(), phi_out=()) -> CodeType:
    """The (unboxed) code type of a translated arrow.

    ``param_types``, ``phi_in``, ``phi_out`` are T value types; arguments
    are pushed first-to-last so the *last* argument is on top.
    """
    zeta_tail = StackTy(tuple(phi_out), ZETA)
    cont = continuation_type(result, zeta_tail)
    arg_stack = StackTy(
        tuple(reversed(tuple(param_types))) + tuple(phi_in), ZETA)
    return CodeType(
        (DeltaBind(KIND_ZETA, ZETA), DeltaBind(KIND_EPS, EPS)),
        RegFileTy.of(ra=cont), arg_stack, QReg("ra"))


#: Translations keyed by the F type itself: F types are frozen and
#: hashable with structural equality, and the translation depends only
#: on that structure, so equal types share one result.
_TRANSLATION_CACHE = LRUCache(1024, metric_prefix="ft.translate.cache")


def type_translation(ty: FType) -> TalType:
    """``tauT`` -- translate an F type to its T representation type
    (memoized per type)."""
    hit = _TRANSLATION_CACHE.get(ty)
    if hit is None:
        hit = _translate(ty)
        _TRANSLATION_CACHE.put(ty, hit)
    return hit


def _translate(ty: FType) -> TalType:
    if isinstance(ty, FTVar):
        return TVar(ty.name)
    if isinstance(ty, FUnit):
        return TUnit()
    if isinstance(ty, FInt):
        return TInt()
    if isinstance(ty, FRec):
        return TRec(ty.var, type_translation(ty.body))
    if isinstance(ty, FTupleT):
        return TBox(TupleTy(tuple(type_translation(t) for t in ty.items)))
    if isinstance(ty, FLump):
        # foreign pointers: the one mutable reference F may hold (sec 6)
        return TRef(ty.items)
    if isinstance(ty, FStackArrow):
        return TBox(arrow_code_type(
            tuple(type_translation(p) for p in ty.params),
            type_translation(ty.result), ty.phi_in, ty.phi_out))
    if isinstance(ty, FArrow):
        return TBox(arrow_code_type(
            tuple(type_translation(p) for p in ty.params),
            type_translation(ty.result)))
    raise FTTypeError(f"no translation for F type {ty}",
                      judgment="ft.type-translation", subject=str(ty))
