"""Well-formedness judgments for T types and contexts.

These are the ``Delta |- tau``-style side conditions used throughout the
typing rules of paper Fig 2: a type (or stack typing, register-file typing,
return marker, heap-value type) is well-formed under ``Delta`` when every
free type variable is bound in ``Delta`` at the right kind.

Also here is the return-marker *restriction* judgment written
``Delta'[Delta]; chi; sigma |- q`` in the paper: the current return marker
must actually point at a visible return continuation --

* a register marker's register must be in ``chi`` and hold a
  continuation-shaped code pointer (``box forall[].{r': tau; sigma'} q'``);
* a stack-index marker must name an *exposed* slot (not hidden in the
  abstract tail) holding such a pointer;
* an ``eps`` marker is permitted only when bound by the enclosing code
  block's own ``Delta`` (the paper: components cannot abstract their return
  markers, but local blocks can; jumping to such a block requires
  instantiating ``eps`` first);
* ``end{tau; sigma}`` requires its components well-formed;
* ``out`` (FT) is always fine -- F code returns by being a value.
"""

from __future__ import annotations

from repro.errors import FTTypeError
from repro.tal.retmarker import is_continuation_type
from repro.tal.syntax import (
    CodeType, Delta, DeltaBind, delta_contains, HeapValType, KIND_ALPHA,
    KIND_EPS, KIND_FALPHA, KIND_ZETA, QEnd, QEps, QIdx, QOut, QReg, RegFileTy,
    RetMarker, StackTy, TalType, TBox, TExists, TInt, TRec, TRef, TupleTy,
    TUnit, TVar,
)

__all__ = [
    "check_type_wf", "check_psi_wf", "check_stack_wf", "check_chi_wf",
    "check_q_wf", "check_q_restriction", "check_delta_wf",
    "check_chi_minus_q_wf",
]


def _fail(msg: str, judgment: str, subject) -> FTTypeError:
    return FTTypeError(msg, judgment=judgment, subject=str(subject))


def check_delta_wf(delta: Delta) -> None:
    """A type environment is well-formed when its names are distinct."""
    names = [b.name for b in delta]
    if len(set(names)) != len(names):
        raise _fail(f"duplicate names in Delta: {names}", "tal.delta", names)


# The well-formedness memo: each compound type node records, in the
# ``_wf`` slot of :class:`repro.tal.syntax.TypeMemo`, the last type
# environment under which it passed; a check under that same environment
# returns at once, and any other environment walks the node as before.
# The memo only records acceptances, and it is keyed by the whole
# environment, never by free variables: a code type's binder shadows
# every other binding of its name, whatever the kind (see
# :func:`check_psi_wf`), so a type without free variables can still be
# ill-formed.  One slot is enough: over ``build`` at seeds 1 and 2, 99%
# of the nodes are checked under a single environment, and the few that
# see up to four cost about 1% more calls to re-walk than a four-slot
# memo would.  Threads racing on one node may overwrite the record; the
# node is then walked again, which changes no verdict.


def check_type_wf(delta: Delta, ty: TalType) -> None:
    """``Delta |- tau``."""
    cls = ty.__class__
    if cls is TInt or cls is TUnit:
        return
    if cls is TVar:
        if not (delta_contains(delta, KIND_ALPHA, ty.name)
                or delta_contains(delta, KIND_FALPHA, ty.name)):
            raise _fail(f"unbound type variable {ty.name!r}",
                        "tal.type-wf", ty)
        return
    if getattr(ty, "_wf", None) == delta:
        return
    if cls is TBox:
        check_psi_wf(delta, ty.psi)
    elif cls is TExists or cls is TRec:
        check_type_wf(delta + (DeltaBind(KIND_ALPHA, ty.var),), ty.body)
    elif cls is TRef:
        for t in ty.items:
            check_type_wf(delta, t)
    else:
        raise _fail(f"unknown type form {cls.__name__}", "tal.type-wf", ty)
    object.__setattr__(ty, "_wf", delta)


def check_psi_wf(delta: Delta, psi: HeapValType) -> None:
    """``Delta |- psi``."""
    if getattr(psi, "_wf", None) == delta:
        return
    if isinstance(psi, TupleTy):
        for t in psi.items:
            check_type_wf(delta, t)
    elif isinstance(psi, CodeType):
        check_delta_wf(psi.delta)
        inner = delta
        if psi.delta:
            shadowed = {b.name for b in psi.delta}
            inner = tuple(b for b in delta
                          if b.name not in shadowed) + psi.delta
        check_chi_wf(inner, psi.chi)
        check_stack_wf(inner, psi.sigma)
        check_q_wf(inner, psi.q)
    else:
        raise _fail(f"unknown heap type form {type(psi).__name__}",
                    "tal.psi-wf", psi)
    object.__setattr__(psi, "_wf", delta)


def check_stack_wf(delta: Delta, sigma: StackTy) -> None:
    """``Delta |- sigma``."""
    if getattr(sigma, "_wf", None) == delta:
        return
    for t in sigma.prefix:
        check_type_wf(delta, t)
    if sigma.tail is not None and not delta_contains(
            delta, KIND_ZETA, sigma.tail):
        raise _fail(f"unbound stack variable {sigma.tail!r}",
                    "tal.stack-wf", sigma)
    object.__setattr__(sigma, "_wf", delta)


def check_chi_wf(delta: Delta, chi: RegFileTy) -> None:
    """``Delta |- chi``."""
    if getattr(chi, "_wf", None) == delta:
        return
    for _, t in chi.entries:
        check_type_wf(delta, t)
    object.__setattr__(chi, "_wf", delta)


def check_q_wf(delta: Delta, q: RetMarker) -> None:
    """``Delta |- q`` -- free-variable well-formedness only.

    Positional validity against ``chi``/``sigma`` is the separate
    restriction judgment :func:`check_q_restriction`.
    """
    if isinstance(q, QEnd):
        if getattr(q, "_wf", None) != delta:
            check_type_wf(delta, q.ty)
            check_stack_wf(delta, q.sigma)
            object.__setattr__(q, "_wf", delta)
        return
    if isinstance(q, (QReg, QIdx, QOut)):
        return
    if isinstance(q, QEps):
        if not delta_contains(delta, KIND_EPS, q.name):
            raise _fail(f"unbound return-marker variable {q.name!r}",
                        "tal.q-wf", q)
        return
    raise _fail(f"unknown return marker form {type(q).__name__}",
                "tal.q-wf", q)


def check_q_restriction(delta: Delta, chi: RegFileTy, sigma: StackTy,
                        q: RetMarker) -> None:
    """The paper's ``Delta'[Delta]; chi; sigma |- q`` restriction.

    Ensures a block of instructions "knows where it is returning": the
    marker must designate a *visible*, continuation-shaped code pointer (or
    be ``end{...}``/``out``, or an ``eps`` bound by the block's own Delta).
    """
    if isinstance(q, QReg):
        ty = chi.get(q.reg)
        if ty is None:
            raise _fail(
                f"return marker {q} names a register absent from chi = "
                f"{chi}", "tal.q-restriction", q)
        if not is_continuation_type(ty):
            raise _fail(
                f"return-marker register {q.reg} holds {ty}, which is not "
                "a continuation-shaped code pointer "
                "(box forall[].{r': tau; sigma'} q')",
                "tal.q-restriction", q)
        return
    if isinstance(q, QIdx):
        if not sigma.has_slot(q.index):
            raise _fail(
                f"return marker {q} names stack slot {q.index}, which is "
                f"not exposed in sigma = {sigma}", "tal.q-restriction", q)
        ty = sigma.slot(q.index)
        if not is_continuation_type(ty):
            raise _fail(
                f"return-marker stack slot {q.index} holds {ty}, which is "
                "not a continuation-shaped code pointer",
                "tal.q-restriction", q)
        return
    if isinstance(q, QEps):
        if not delta_contains(delta, KIND_EPS, q.name):
            raise _fail(
                f"return marker is the unbound variable {q.name!r}; "
                "components cannot abstract their own return markers",
                "tal.q-restriction", q)
        return
    if isinstance(q, QEnd):
        check_q_wf(delta, q)
        return
    if isinstance(q, QOut):
        return
    raise _fail(f"unknown return marker form {type(q).__name__}",
                "tal.q-restriction", q)


def check_chi_minus_q_wf(delta: Delta, chi: RegFileTy, q: RetMarker) -> None:
    """The paper's ``Delta |- chi \\ q``.

    When ``q`` is a register, the rest of ``chi`` (everything except that
    register) must be well-formed under ``Delta`` alone; i.e. only the
    return-continuation entry may mention the callee's abstract ``zeta`` and
    ``eps``.
    """
    skip = q.reg if isinstance(q, QReg) else None
    for r, t in chi.entries:
        if r != skip:
            check_type_wf(delta, t)
