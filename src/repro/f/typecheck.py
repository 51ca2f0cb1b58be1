"""Pure F's typing judgment (paper section 4.1): FT's, on F's fragment.

The paper defines one typing judgment, FT's (Fig 7,
:mod:`repro.ft.typecheck`).  Its F rules are the standard ones with the
stack typing threaded through unchanged, so a pure F program -- one with
no boundaries and no stack-modifying lambdas -- is typed by it at the
empty stack, and ``Gamma |- e : tau`` here is two steps: a check that
``e``, its annotations and ``Gamma`` stay inside F's part of
:data:`repro.walk.GRAMMAR`, then :func:`repro.ft.typecheck.check_ft_expr`.

The paper elides the (standard) F rules; FT's checker follows the usual
presentation:

* ``if0`` requires an ``int`` scrutinee and branches of equal type;
* application ``t t1 ... tn`` consumes *all* arguments at once against an
  n-ary arrow ``(tau_1, ..., tau_n) -> tau'``;
* ``fold[mu a.tau] e`` checks ``e`` at the unrolling ``tau[mu a.tau / a]``;
* ``unfold e`` requires ``e`` to have a ``mu`` type and yields the unrolling.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import walk
from repro.errors import FTTypeError
from repro.f import syntax
from repro.f.syntax import FExpr, FType

__all__ = ["typecheck", "TypeEnv"]

TypeEnv = Dict[str, FType]

#: F's part of the one grammar: its term classes and its type classes.
_PURE = frozenset(getattr(syntax, key.rsplit(".", 1)[1])
                  for key in walk.GRAMMAR
                  if key.startswith(syntax.__name__ + "."))


def _fail(msg: str, subject) -> FTTypeError:
    return FTTypeError(msg, judgment="f.expression", subject=str(subject))


def _check_type(ty: FType) -> FType:
    """``ty``, if every sub-type of it is an F type."""
    for t in walk.preorder(ty):
        if t.__class__ not in _PURE:
            raise _fail(f"type {t} is not pure F; use repro.ft.typecheck "
                        "for mixed programs", ty)
    return ty


def typecheck(e: FExpr, env: Optional[TypeEnv] = None) -> FType:
    """Infer the type of a pure F expression ``e`` under ``env``.

    Raises :class:`FTTypeError` if ``e`` is ill-typed or uses FT-only forms.
    """
    env = env or {}
    for ty in env.values():
        _check_type(ty)
    for node in walk.preorder(e):
        if node.__class__ not in _PURE:
            from repro.ft.syntax import StackLam

            raise _fail(
                "stack-modifying lambdas are FT forms; use "
                "repro.ft.typecheck for mixed programs"
                if isinstance(node, StackLam) else
                "expression form is not pure F (boundaries need "
                "repro.ft.typecheck)", node)
        walk.map_types(node, _check_type, None)
    from repro.ft.typecheck import check_ft_expr

    return check_ft_expr(e, gamma=env)[0]
