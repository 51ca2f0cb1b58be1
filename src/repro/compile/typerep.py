"""The compiler's type translation: Fig 9 at the interface, packed closures inside.

Fig 9 translates an F arrow to a *bare* code pointer.  That is the
calling convention at a component's boundary, and a bare pointer has no
room for an environment: a lambda with captures can only become one at
run time, through an ``import`` that closes compiled code over an F
tuple.  Inside a component nothing forces that representation.  As in
Morrisett et al.'s STAL ("From System F to Typed Assembly Language",
TOPLAS 1999), an arrow ``(tau_1, ..., tau_n) -> tau'`` can instead be a
package of code and environment::

    exists b. box <box code[z, e]{ra: box forall[].{r1: tau'; z} e}
                      (b :: tau_n :: ... :: tau_1 :: z) ra,  b>

The code takes its environment on top of its arguments and otherwise
keeps the Fig 9 ``[zeta, eps]`` convention; the abstract ``b`` hides the
environment's layout, so closures with different captures share a type.

Which arrows keep Fig 9 is decided once per compilation, by type: the
*interface* arrows (:func:`interface_arrows`) are those that occur in the
types at which values cross the component's boundary -- the entry's
parameter and result types (or the main term's type), and the types of
the free variables the caller supplies -- closed under sub-terms,
mu-unrolling, and the capture types of interface-typed lambdas (those
still materialize through an ``import``, whose F payload carries the
captured values across).  Every other arrow is packed
(:class:`TypeRep`).  Arrows are compared up to alpha-equivalence of
``mu`` binders, and an arrow under a ``mu`` is judged by its closed
form, so the translation commutes with ``unfold``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Tuple

from repro import walk
from repro.caching import LRUCache
from repro.f.syntax import (
    FArrow, FInt, FRec, FTupleT, FType, FTVar, FUnit, subst_ftype,
)
from repro.ft.translate import (
    EPS, ZETA, arrow_code_type, continuation_type, type_translation,
)
from repro.tal.syntax import (
    CodeType, DeltaBind, KIND_EPS, KIND_ZETA, QReg, RegFileTy, StackTy,
    TalType, TBox, TExists, TInt, TRec, TupleTy, TUnit, TVar,
)

__all__ = ["interface_arrows", "TypeRep", "type_rep",
           "closure_code_type"]

#: Enclosing ``mu`` binders, outermost first: ``(var, mu type)`` pairs.
_Env = Tuple[Tuple[str, FRec], ...]


def _closed(ty: FType, env: _Env) -> FType:
    """Close ``ty`` over its enclosing ``mu`` binders (innermost first)."""
    for var, mu in reversed(env):
        ty = subst_ftype(ty, var, mu)
    return ty


def interface_arrows(roots: Iterable[FType], defs) -> FrozenSet[FType]:
    """The canonical interface arrows of one compilation.

    ``roots`` are the boundary types; ``defs`` the hoisted
    :class:`~repro.compile.closure.CodeDef` records, whose capture types
    join the set when the definition's own arrow is in it."""
    found = set()
    for ty in roots:
        _visit(ty, found)
    pending = [d for d in defs if d.captures]
    while found and pending:
        escaping = [d for d in pending if walk.canonical(d.arrow) in found]
        if not escaping:
            break
        pending = [d for d in pending if d not in escaping]
        for d in escaping:
            for _, ty in d.captures:
                _visit(ty, found)
    return frozenset(found)


def _visit(ty: FType, found: set) -> None:
    """Add to ``found`` the canonical arrows of ``ty`` and of its
    sub-types, each under its enclosing ``mu`` binders; the sub-types of
    an arrow already found are not visited again, nor are T types."""
    env = []

    def pre(node):
        if not isinstance(node, FType):
            return node
        if type(node) is FArrow:
            key = walk.canonical(_closed(node, env))
            if key in found:
                return node
            found.add(key)
        elif type(node) is FRec:
            env.append((node.var, node))
        return None

    def post(node, results):
        if type(node) is FRec:
            env.pop()

    walk.fold(ty, pre, post)


def closure_code_type(params: Tuple[TalType, ...], result: TalType,
                      env: TalType) -> CodeType:
    """The code type of a packed closure's code: Fig 9's arrow code type
    with the environment ``env`` on top of the arguments."""
    return CodeType(
        (DeltaBind(KIND_ZETA, ZETA), DeltaBind(KIND_EPS, EPS)),
        RegFileTy.of(ra=continuation_type(result, StackTy((), ZETA))),
        StackTy((env,) + tuple(reversed(params)), ZETA), QReg("ra"))


class TypeRep:
    """The F-to-T type translation of one interface set."""

    _MEMO_LIMIT = 4096

    def __init__(self, interface: FrozenSet[FType] = frozenset()):
        self.interface = interface
        self._memo = {}

    def at_interface(self, arrow: FType, env: _Env = ()) -> bool:
        """Does ``arrow`` (under the ``mu`` binders ``env``) keep Fig 9?"""
        if type(arrow) is not FArrow:
            return True
        if not self.interface:
            return False
        return walk.canonical(_closed(arrow, env)) in self.interface

    def packed(self, ty: FType) -> bool:
        """Are values of the closed type ``ty`` packed closures?"""
        return not self.at_interface(ty)

    def translate(self, ty: FType) -> TalType:
        """The T representation type of the closed F type ``ty``."""
        hit = self._memo.get(ty)
        if hit is None:
            if len(self._memo) >= self._MEMO_LIMIT:
                self._memo.clear()
            hit = self._memo[ty] = self._translate(ty, ())
        return hit

    def arrow_parts(self, arrow: FArrow):
        """The translated parameter and result types of ``arrow``."""
        return (tuple(self.translate(p) for p in arrow.params),
                self.translate(arrow.result))

    def _translate(self, ty: FType, env: _Env) -> TalType:
        if isinstance(ty, FTVar):
            return TVar(ty.name)
        if isinstance(ty, FInt):
            return TInt()
        if isinstance(ty, FUnit):
            return TUnit()
        if isinstance(ty, FRec):
            return TRec(ty.var,
                        self._translate(ty.body, env + ((ty.var, ty),)))
        if isinstance(ty, FTupleT):
            return TBox(TupleTy(tuple(self._translate(t, env)
                                      for t in ty.items)))
        if type(ty) is FArrow:
            params = tuple(self._translate(p, env) for p in ty.params)
            result = self._translate(ty.result, env)
            if self.at_interface(ty, env):
                return TBox(arrow_code_type(params, result))
            beta = _env_var(env)
            return TExists(beta, TBox(TupleTy((
                TBox(closure_code_type(params, result, TVar(beta))),
                TVar(beta)))))
        # FT-only types (foreign pointers, stack arrows) reach a
        # compilation only through ``gamma``: always the interface.
        return type_translation(ty)


def _env_var(env: _Env) -> str:
    """The existential's binder: any name no enclosing ``mu`` binds
    (only those can occur free in the packed arrow)."""
    taken = {var for var, _ in env}
    name, n = "b", 0
    while name in taken:
        n += 1
        name = f"b{n}"
    return name


#: One :class:`TypeRep` per interface set.  Most compilations have no
#: interface arrows and share the first entry and its memo.
_REPS = LRUCache(64)


def type_rep(interface: FrozenSet[FType]) -> TypeRep:
    """The (shared) :class:`TypeRep` for ``interface``."""
    rep = _REPS.get(interface)
    if rep is None:
        rep = TypeRep(interface)
        _REPS.put(interface, rep)
    return rep
