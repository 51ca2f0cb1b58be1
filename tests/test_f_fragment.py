"""Pure F is FT's typing judgment on F's fragment.

:func:`repro.f.typecheck.typecheck` checks that a term, its annotations
and its environment stay inside F's part of :data:`repro.walk.GRAMMAR`,
then types it with :func:`repro.ft.typecheck.check_ft_expr`.
"""

import pytest

from repro.compile.pipeline import is_general_compilable
from repro.errors import FTTypeError
from repro.f.syntax import App, FArrow, FInt, IntE, Lam, Var
from repro.f.typecheck import typecheck
from repro.ft.lump import FLump
from repro.ft.syntax import FStackArrow
from repro.ft.typecheck import check_ft_expr
from repro.tal.syntax import TInt

#: A stack-modifying arrow that leaves the stack alone: FT's application
#: rule accepts a call through it, F has no such type.
STACK_ARROW = FStackArrow((), FInt(), (), ())


@pytest.mark.parametrize("ty", [
    STACK_ARROW,
    FArrow((FStackArrow((), FInt(), (TInt(),), (TInt(),)),), FInt()),
    FLump((TInt(),)),
], ids=["stack-arrow", "nested-stack-arrow", "lump"])
def test_ft_only_types_in_gamma_are_rejected(ty):
    with pytest.raises(FTTypeError, match="not pure F") as info:
        typecheck(Var("f"), {"f": ty})
    assert info.value.judgment == "f.expression"


def test_ft_only_annotation_is_rejected():
    call = Lam((("f", STACK_ARROW),), App(Var("f"), ()))
    assert check_ft_expr(call)[0] == FArrow((STACK_ARROW,), FInt())
    with pytest.raises(FTTypeError, match="not pure F"):
        typecheck(call)
    assert not is_general_compilable(call)
    assert not is_general_compilable(App(Var("f"), (IntE(1),)),
                                     {"f": STACK_ARROW})
