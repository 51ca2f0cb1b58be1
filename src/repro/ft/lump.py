"""Foreign pointers: the lump-type extension of paper section 6.

    "We could also add foreign pointers to FT, which would allow
     references to mutable T tuples to flow into F as opaque values of
     lump type (as in Matthews-Findler [16]), allowing them to be passed
     but only used in T.  Foreign pointers would have the form
     L<tau>FT l (where l : ref <tau>T)."

This module implements exactly that:

* :class:`FLump` -- the F-side lump type ``L<tau, ...>``, inhabiting the
  F type grammar but carrying the *T* field types of the referenced
  mutable tuple.  Its boundary translation is ``ref <tau...>`` (the one
  mutable thing that can now flow into F);
* :class:`LumpVal` -- the runtime F value: an opaque handle to a heap
  location.  F can bind it, pass it, and return it -- every *use* must
  cross back into T through a boundary.

With lumps, T libraries can hand F genuinely shared mutable state (see
:mod:`repro.stdlib.foreign` for a counter library and its tests), at the
cost the paper notes: equivalences that held in lump-free FT (where
embedded components cannot communicate) no longer do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import FTTypeError
from repro.f.syntax import FExpr, FType, register_value_class
from repro.tal.syntax import Loc, TalType, TRef, TupleTy

__all__ = ["FLump", "LumpVal", "lump_type_of_ref"]


@dataclass(frozen=True, slots=True)
class FLump(FType):
    """The lump type ``L<tau, ...>`` of foreign pointers to mutable
    T tuples with the given field types."""

    items: Tuple[TalType, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.items)
        return f"L<{inner}>"


@dataclass(frozen=True, slots=True)
class LumpVal(FExpr):
    """An opaque foreign pointer -- a runtime-only F value.

    F programs cannot construct these syntactically; they arrive through
    boundaries at lump type and can only be consumed by handing them back
    to T."""

    loc: Loc

    def __str__(self) -> str:
        return f"lump({self.loc})"


def lump_type_of_ref(ty: TalType) -> Optional[FLump]:
    """The lump type matching a ``ref <tau...>``, or None."""
    if isinstance(ty, TRef):
        return FLump(ty.items)
    return None


register_value_class(LumpVal)
