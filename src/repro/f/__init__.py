"""F: the simply-typed functional language of FunTAL (paper section 4.1).

Public surface:

* :mod:`repro.f.syntax` -- types and expressions (paper Fig 5);
* :mod:`repro.f.typecheck` -- ``Gamma |- e : tau``: FT's judgment
  (:mod:`repro.ft.typecheck`) on terms that stay inside F's fragment;
* :mod:`repro.f.eval` -- the small-step call-by-value machine;
* :mod:`repro.f.cek` -- the environment-machine (CEK) fast path.
"""

from repro.f.syntax import (  # noqa: F401
    App, BinOp, FArrow, FExpr, FInt, Fold, FRec, FTupleT, FType, FTVar,
    FUnit, If0, IntE, Lam, Proj, TupleE, Unfold, UnitE, Var, free_vars,
    ftype_equal, is_value, subst_expr, subst_ftype,
)
from repro.f.typecheck import typecheck  # noqa: F401
from repro.f.eval import evaluate, FEvaluator, step  # noqa: F401

_CEK_EXPORTS = (
    "CEKEvaluator", "DEFAULT_ENGINE", "ENGINES", "cek_evaluate",
    "resolve_engine",
)


def __getattr__(name):
    # Lazy: repro.f.cek needs repro.ft.syntax (for Boundary/Hole), whose
    # own imports re-enter this package -- an eager import here would
    # cycle whenever repro.ft loads first.
    if name in _CEK_EXPORTS:
        from repro.f import cek

        return getattr(cek, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
