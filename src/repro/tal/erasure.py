"""Type erasure for T: the machine never consults type annotations.

T's operational semantics is *erasure-compatible*: types decorate
instructions (``halt τ, σ``, ``pack <τ, w> as τ'``, instantiation lists)
but never influence which step is taken or what value is computed.  The
paper relies on this implicitly -- "we merge local heap fragments ... the
full semantics are standard" -- and it is what makes the type system a
static discipline rather than a runtime cost.

:func:`erase_types` makes the property *testable*.  It is a fold over
the T grammar of :mod:`repro.walk` that erases each type where the
grammar says a term holds one: every value type becomes ``unit``, every
stack keeps only its tail variable, every ``end{τ; σ}`` becomes
``end{unit; nil}`` and every register typing maps its registers to
``unit``.  A pack's annotation stays an existential and a fold's a
recursive type (``∃a.unit``, ``μa.unit``), and a halt's stack is
``nil``, so an erased halt mentions no type variable.  What the machine does
consult survives -- register names, slot indices, labels, binder *kinds
and names* (so instantiation arity still lines up), and marker
positions.  The erasure-invariance tests run a component and its
erasure and require the same halt value; running them over the random
well-typed program battery gives a machine-level proof-by-testing that
evaluation is typing-independent.

(Scope: pure T.  FT boundaries genuinely *are* type-directed -- the value
translations dispatch on the boundary type -- so erasure stops at
``import`` and ``protect`` with a :class:`TypeError`; that contrast is
itself the interesting fact.)
"""

from __future__ import annotations

from repro import walk
from repro.tal.syntax import (
    Fold, Halt, NIL_STACK, Pack, QEnd, RegFileTy, StackTy, TalType, TExists,
    TRec, TUnit,
)

__all__ = ["erase_types", "erase_word"]

_UNIT = TUnit()
_END = QEnd(_UNIT, NIL_STACK)
#: The erasure of the annotations that are not erased by what they are:
#: a pack's and a fold's keep their type's binder over ``unit``, and a
#: halt's stack is ``nil``.
_ANNOTATION = {Pack: ("as_ty", TExists("a", _UNIT)),
               Fold: ("as_ty", TRec("a", _UNIT)),
               Halt: ("sigma", NIL_STACK)}


def _erase(t):
    """The erasure of a T type, by what it is."""
    if isinstance(t, TalType):
        return _UNIT
    if isinstance(t, StackTy):
        return StackTy((), t.tail)
    if isinstance(t, RegFileTy):
        return RegFileTy(tuple((r, _UNIT) for r, _ in t.items()))
    return _END if isinstance(t, QEnd) else t   # registers, indices, eps


def _not_pure_t(x):
    raise TypeError(
        f"erase_types is defined for pure T; found {type(x).__name__}")


def _erase_term(x):
    if x.__class__.__module__ != TUnit.__module__:
        _not_pure_t(x)              # import, protect: FT's
    new = walk.map_types(x, _not_pure_t, _erase)
    annotation = _ANNOTATION.get(x.__class__)
    if annotation is not None:
        new = walk.replace(new, *annotation)
    return None if new is x else walk.Descend(new)


def erase_types(x):
    """Erase every type annotation in a pure T term (a component, or
    any part of one).

    The result is (intentionally) almost never well-typed; it exists to
    run, and running it must produce the same observable result as the
    original."""
    return walk.fold(x, _erase_term, cross=walk.ALL, unknown=_not_pure_t,
                     on=walk.TYPED)


#: Erase the annotations inside a small value.
erase_word = erase_types
