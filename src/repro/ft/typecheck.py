"""The FT multi-language type system (paper Fig 7).

The combined judgment types F expressions under the full T context --
``Psi; Delta; Gamma; chi; sigma; out |- e : tau; sigma'`` -- because
embedded assembly can change the stack: every F rule *threads the stack
typing through its subterms in evaluation order*, and the judgment
*synthesizes* the output stack ``sigma'`` alongside the type.

On the T side, the two new instructions are typed as in Fig 7:

* ``protect phi, zeta`` checks the declared prefix against the current
  stack, abstracts the remainder behind a fresh ``zeta`` (irreversibly),
  and re-expresses an ``end{tau; sigma}`` marker's stack relative to
  ``zeta`` -- the tail it promises to return is the tail just hidden.  A
  stack-index marker must stay inside the visible prefix.
* ``import rd, sigma_0 TFtau e`` types ``e`` at ``out`` under a stack whose
  tail ``sigma_0`` is abstracted (so embedded assembly inside ``e`` cannot
  touch it), requires the current marker to live in that protected tail (a
  stack index beyond the visible front) or be ``end{...}``, and afterwards
  *wipes the register file* down to ``rd : tauT`` -- embedded code may have
  clobbered every register.  A stack-index marker is shifted by the
  front-size change ``k - j`` (the paper's ``inc``).

Boundaries ``tauFT e`` check their component at empty ``chi`` and marker
``end{tauT; sigma'}``, with ``sigma'`` determined by the boundary's
declared :class:`~repro.ft.syntax.StackDelta` (see that class's docstring
for why the output stack is declared relative to the input).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import FTTypeError
from repro.obs.events import OBS
from repro.f.syntax import (
    App, BinOp, FArrow, FExpr, FInt, Fold, FRec, FTupleT, FType, FUnit,
    ftype_equal, If0, IntE, Lam, Proj, TupleE, Unfold, UnitE, Var,
)
from repro.ft.syntax import Boundary, FStackArrow, Import, Protect, StackLam
from repro.ft.translate import type_translation
from repro.tal.equality import types_equal
from repro.tal.subst import fresh_name, Subst, subst_term
from repro.tal.syntax import (
    Component, Delta, DeltaBind, HeapTy, InstrSeq, Instruction, KIND_ZETA,
    NIL_STACK, QEnd, QIdx, RegFileTy, RetMarker, StackTy, TalType,
)
from repro.tal.typecheck import InstrState, TalTypechecker
from repro.tal.wellformed import check_type_wf

__all__ = ["FTTypechecker", "check_ft_expr", "check_ft_component",
           "strip_tail"]

GammaEnv = Dict[str, FType]


def _fail(msg: str, judgment: str, subject) -> FTTypeError:
    return FTTypeError(msg, judgment=judgment, subject=str(subject))


def strip_tail(sigma: StackTy, tail: StackTy, subject) -> Tuple[TalType, ...]:
    """Split ``sigma = front ++ tail`` and return ``front``.

    Raises when ``tail`` is not a suffix of ``sigma`` (same tail variable,
    prefix a type-equal suffix)."""
    if sigma.tail != tail.tail:
        raise _fail(
            f"stack {sigma} does not end in the protected tail {tail}",
            "ft.stack-split", subject)
    k = len(tail.prefix)
    if k > len(sigma.prefix):
        raise _fail(
            f"stack {sigma} is shorter than the protected tail {tail}",
            "ft.stack-split", subject)
    front = sigma.prefix[:len(sigma.prefix) - k] if k else sigma.prefix
    kept = sigma.prefix[len(sigma.prefix) - k:] if k else ()
    for got, want in zip(kept, tail.prefix):
        if not types_equal(got, want):
            raise _fail(
                f"stack {sigma} does not end in the protected tail {tail}: "
                f"{got} vs {want}", "ft.stack-split", subject)
    return front


class FTTypechecker(TalTypechecker):
    """Typechecker for the full multi-language.

    Extends the T checker with the F judgment (:meth:`check_fexpr`) and the
    ``import``/``protect`` instruction rules; ``gamma`` is the F variable
    environment, scoped by the lambda rules.
    """

    def __init__(self, psi: Optional[HeapTy] = None,
                 gamma: Optional[GammaEnv] = None):
        super().__init__(psi)
        self.gamma: GammaEnv = dict(gamma or {})

    # ------------------------------------------------------------------
    # T side: the two new instructions
    # ------------------------------------------------------------------

    def step_extended_instruction(self, st: InstrState,
                                  i: Instruction) -> InstrState:
        if isinstance(i, Protect):
            return self._step_protect(st, i)
        if isinstance(i, Import):
            return self._step_import(st, i)
        return super().step_extended_instruction(st, i)

    def step_in_sequence(self, st: InstrState, iseq: InstrSeq,
                         k: int) -> Tuple[InstrState, InstrSeq, int]:
        # protect binds its zeta over the rest of the sequence; when the
        # name would shadow an ambient binder (library code always uses a
        # canonical "z"), alpha-rename it in the remainder instead of
        # rejecting -- composition of generated components depends on it.
        instr = iseq.instrs[k]
        if isinstance(instr, Protect) and \
                instr.zeta in {b.name for b in st.delta}:
            fresh = fresh_name(instr.zeta)
            renaming = Subst.single(KIND_ZETA, instr.zeta,
                                    StackTy((), fresh))
            rest = subst_term(
                InstrSeq(iseq.instrs[k + 1:], iseq.term), renaming)
            return (self.step_instruction(st, Protect(instr.phi, fresh)),
                    rest, 0)
        return super().step_in_sequence(st, iseq, k)

    def _step_protect(self, st: InstrState, i: Protect) -> InstrState:
        if OBS.enabled:
            OBS.metrics.inc("typecheck.ft.protect")
        m = len(i.phi)
        if st.sigma.depth < m:
            raise _fail(
                f"protect exposes {m} slots but only {st.sigma.depth} are "
                f"visible in {st.sigma}", "ft.protect", i)
        for k, want in enumerate(i.phi):
            if not types_equal(st.sigma.prefix[k], want):
                raise _fail(
                    f"protect prefix slot {k} is {st.sigma.prefix[k]}, "
                    f"declared {want}", "ft.protect", i)
        if i.zeta in {b.name for b in st.delta}:
            raise _fail(
                f"protect binder {i.zeta} shadows an existing type "
                "variable", "ft.protect", i)
        hidden = st.sigma.drop(m)
        new_q = self._generalize_marker(st.q, hidden, i.zeta, m, i)
        return InstrState(
            st.delta + (DeltaBind(KIND_ZETA, i.zeta),),
            st.chi,
            StackTy(st.sigma.prefix[:m], i.zeta),
            new_q)

    def _generalize_marker(self, q: RetMarker, hidden: StackTy, zeta: str,
                           visible: int, subject) -> RetMarker:
        if isinstance(q, QEnd):
            front = strip_tail(q.sigma, hidden, subject)
            return QEnd(q.ty, StackTy(front, zeta))
        if isinstance(q, QIdx):
            if q.index >= visible:
                raise _fail(
                    f"protect would hide the return-marker slot {q.index}",
                    "ft.protect", subject)
            return q
        return q  # register and eps markers are unaffected

    def _step_import(self, st: InstrState, i: Import) -> InstrState:
        if OBS.enabled:
            OBS.metrics.inc("typecheck.ft.import")
        front = strip_tail(st.sigma, i.protected, i)
        m = len(front)
        if isinstance(st.q, QIdx):
            # The marker may sit anywhere on the exposed stack; its
            # position *relative to the protected tail* is preserved, so
            # after the front changes from m to n slots it resurfaces at
            # index + n - m (the paper's inc).  Fig 10's generated wrapper
            # relies on a front marker: the saved continuation at slot 0
            # above the argument slots.  The sequence judgment re-checks
            # that the shifted slot is continuation-shaped afterwards.
            pass
        elif not isinstance(st.q, QEnd):
            raise _fail(
                f"import requires a stack-index or end{{...}} return "
                f"marker so embedded code cannot clobber it; current is "
                f"{st.q}", "ft.import", i)
        # Abstract the protected tail for the inner F check unless it is
        # already a bare stack variable.
        if not i.protected.prefix and i.protected.tail is not None:
            inner_delta = st.delta
            inner_sigma = st.sigma
            inner_tail = i.protected.tail
        else:
            inner_tail = fresh_name("z")
            inner_delta = st.delta + (DeltaBind(KIND_ZETA, inner_tail),)
            inner_sigma = StackTy(front, inner_tail)
        e_ty, e_sigma = self.check_fexpr(inner_delta, st.chi, inner_sigma,
                                         i.expr)
        if not ftype_equal(e_ty, i.ty):
            raise _fail(
                f"imported expression has type {e_ty}, annotation says "
                f"{i.ty}", "ft.import", i)
        if e_sigma.tail != inner_tail:
            raise _fail(
                f"imported expression's output stack {e_sigma} lost the "
                f"protected tail {inner_tail}", "ft.import", i)
        new_front = e_sigma.prefix
        n = len(new_front)
        new_sigma = StackTy(new_front + i.protected.prefix,
                            i.protected.tail)
        new_q = st.q if isinstance(st.q, QEnd) else QIdx(
            st.q.index + n - m)
        # Embedded code may clobber every register: chi collapses to rd.
        new_chi = RegFileTy.of({i.rd: type_translation(i.ty)})
        return InstrState(st.delta, new_chi, new_sigma, new_q)

    # ------------------------------------------------------------------
    # F side:  Psi; Delta; Gamma; chi; sigma; out |- e : tau; sigma'
    # ------------------------------------------------------------------

    def check_fexpr(self, delta: Delta, chi: RegFileTy, sigma: StackTy,
                    e: FExpr) -> Tuple[FType, StackTy]:
        if OBS.enabled:
            OBS.metrics.inc(f"typecheck.ft.expr.{type(e).__name__.lower()}")
        if isinstance(e, Var):
            if e.name not in self.gamma:
                raise _fail(f"unbound variable {e.name!r}", "ft.expr", e)
            return self.gamma[e.name], sigma
        if isinstance(e, UnitE):
            return FUnit(), sigma
        if isinstance(e, IntE):
            return FInt(), sigma
        if isinstance(e, BinOp):
            lt, s1 = self.check_fexpr(delta, chi, sigma, e.left)
            self._expect_int(lt, "left operand", e)
            rt, s2 = self.check_fexpr(delta, chi, s1, e.right)
            self._expect_int(rt, "right operand", e)
            return FInt(), s2
        if isinstance(e, If0):
            ct, s1 = self.check_fexpr(delta, chi, sigma, e.cond)
            self._expect_int(ct, "if0 scrutinee", e)
            tt, s_then = self.check_fexpr(delta, chi, s1, e.then)
            et, s_else = self.check_fexpr(delta, chi, s1, e.els)
            if not ftype_equal(tt, et):
                raise _fail(f"if0 branches disagree: {tt} vs {et}",
                            "ft.expr", e)
            if not types_equal(s_then, s_else):
                raise _fail(
                    f"if0 branches leave different stacks: {s_then} vs "
                    f"{s_else}", "ft.expr", e)
            return tt, s_then
        if isinstance(e, StackLam):
            return self._check_lambda(delta, chi, sigma, e,
                                      e.phi_in, e.phi_out)
        if isinstance(e, Lam):
            return self._check_lambda(delta, chi, sigma, e, (), ())
        if isinstance(e, App):
            return self._check_app(delta, chi, sigma, e)
        if isinstance(e, Fold):
            if not isinstance(e.ann, FRec):
                raise _fail(f"fold annotation {e.ann} is not a mu type",
                            "ft.expr", e)
            body_ty, s1 = self.check_fexpr(delta, chi, sigma, e.body)
            unrolled = e.ann.unroll()
            if not ftype_equal(body_ty, unrolled):
                raise _fail(
                    f"fold body has type {body_ty}, expected unrolling "
                    f"{unrolled}",
                    "ft.expr", e)
            return e.ann, s1
        if isinstance(e, Unfold):
            body_ty, s1 = self.check_fexpr(delta, chi, sigma, e.body)
            if not isinstance(body_ty, FRec):
                raise _fail(f"unfold of non-mu type {body_ty}", "ft.expr", e)
            return body_ty.unroll(), s1
        if isinstance(e, TupleE):
            tys = []
            cur = sigma
            for item in e.items:
                ty, cur = self.check_fexpr(delta, chi, cur, item)
                tys.append(ty)
            return FTupleT(tuple(tys)), cur
        if isinstance(e, Proj):
            body_ty, s1 = self.check_fexpr(delta, chi, sigma, e.body)
            if not isinstance(body_ty, FTupleT):
                raise _fail(f"projection from non-tuple type {body_ty}",
                            "ft.expr", e)
            if not 0 <= e.index < len(body_ty.items):
                raise _fail(f"projection index {e.index} out of range",
                            "ft.expr", e)
            return body_ty.items[e.index], s1
        if isinstance(e, Boundary):
            return self._check_boundary(delta, sigma, e)
        from repro.ft.lump import FLump, LumpVal

        if isinstance(e, LumpVal):
            entry = self.psi.get(e.loc)
            if entry is None:
                raise _fail(f"lump points at unknown location {e.loc}",
                            "ft.expr", e)
            nu, psi_ty = entry
            from repro.tal.syntax import REF, TupleTy

            if nu != REF or not isinstance(psi_ty, TupleTy):
                raise _fail(
                    f"lump location {e.loc} is not a mutable tuple",
                    "ft.expr", e)
            return FLump(psi_ty.items), sigma
        raise _fail(f"unknown FT expression {type(e).__name__}",
                    "ft.expr", e)

    def _expect_int(self, ty: FType, what: str, e: FExpr) -> None:
        if not isinstance(ty, FInt):
            raise _fail(f"{what} has type {ty}, expected int", "ft.expr", e)

    def _check_lambda(self, delta: Delta, chi: RegFileTy, sigma: StackTy,
                      e: Lam, phi_in, phi_out) -> Tuple[FType, StackTy]:
        names = [x for x, _ in e.params]
        if len(set(names)) != len(names):
            raise _fail("duplicate parameter names in lambda", "ft.expr", e)
        zeta = fresh_name("z")
        inner_delta = delta + (DeltaBind(KIND_ZETA, zeta),)
        for t in tuple(phi_in) + tuple(phi_out):
            check_type_wf(delta, t)
        body_sigma = StackTy(tuple(phi_in), zeta)
        saved = dict(self.gamma)
        self.gamma.update({x: t for x, t in e.params})
        try:
            body_ty, out_sigma = self.check_fexpr(
                inner_delta, chi, body_sigma, e.body)
        finally:
            self.gamma.clear()
            self.gamma.update(saved)
        expected_out = StackTy(tuple(phi_out), zeta)
        if not types_equal(out_sigma, expected_out):
            raise _fail(
                f"lambda body leaves stack {out_sigma}, its type promises "
                f"{expected_out}", "ft.expr", e)
        param_tys = tuple(t for _, t in e.params)
        if isinstance(e, StackLam):
            return (FStackArrow(param_tys, body_ty, tuple(phi_in),
                                tuple(phi_out)), sigma)
        return FArrow(param_tys, body_ty), sigma

    def _check_app(self, delta: Delta, chi: RegFileTy, sigma: StackTy,
                   e: App) -> Tuple[FType, StackTy]:
        fn_ty, cur = self.check_fexpr(delta, chi, sigma, e.fn)
        if isinstance(fn_ty, FStackArrow):
            params, result = fn_ty.params, fn_ty.result
            phi_in, phi_out = fn_ty.phi_in, fn_ty.phi_out
        elif isinstance(fn_ty, FArrow):
            params, result = fn_ty.params, fn_ty.result
            phi_in, phi_out = (), ()
        else:
            raise _fail(f"applied expression has non-arrow type {fn_ty}",
                        "ft.expr", e)
        if len(params) != len(e.args):
            raise _fail(
                f"arity mismatch: {len(params)} parameters, "
                f"{len(e.args)} arguments", "ft.expr", e)
        for k, (arg, want) in enumerate(zip(e.args, params)):
            got, cur = self.check_fexpr(delta, chi, cur, arg)
            if not ftype_equal(got, want):
                raise _fail(
                    f"argument {k} has type {got}, expected {want}",
                    "ft.expr", e)
        if phi_in or phi_out:
            # The callee consumes the phi_in prefix and leaves phi_out.
            if cur.depth < len(phi_in):
                raise _fail(
                    f"stack {cur} lacks the callee's required prefix "
                    f"{[str(t) for t in phi_in]}", "ft.expr", e)
            for k, want in enumerate(phi_in):
                if not types_equal(cur.prefix[k], want):
                    raise _fail(
                        f"stack slot {k} is {cur.prefix[k]}, callee "
                        f"requires {want}", "ft.expr", e)
            cur = cur.drop(len(phi_in)).cons(*phi_out)
        return result, cur

    def _check_boundary(self, delta: Delta, sigma: StackTy,
                        e: Boundary) -> Tuple[FType, StackTy]:
        if OBS.enabled:
            OBS.metrics.inc("typecheck.ft.boundary")
        target = type_translation(e.ty)
        if e.delta.pops > sigma.depth:
            raise _fail(
                f"boundary pops {e.delta.pops} slots but only "
                f"{sigma.depth} are exposed", "ft.boundary", e)
        out_sigma = e.delta.apply(sigma)
        q = QEnd(target, out_sigma)
        st = InstrState(delta, RegFileTy(), sigma, q)
        self.check_component(st, e.comp)
        return e.ty, out_sigma


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def check_ft_expr(e: FExpr, *, gamma: Optional[GammaEnv] = None,
                  psi: Optional[HeapTy] = None,
                  delta: Delta = (), chi: Optional[RegFileTy] = None,
                  sigma: StackTy = NIL_STACK) -> Tuple[FType, StackTy]:
    """Type an FT expression (F outside); returns ``(tau, sigma')``."""
    checker = FTTypechecker(psi, gamma)
    return checker.check_fexpr(
        delta, chi if chi is not None else RegFileTy(), sigma, e)


def check_ft_component(comp: Component, *, gamma: Optional[GammaEnv] = None,
                       psi: Optional[HeapTy] = None, delta: Delta = (),
                       chi: Optional[RegFileTy] = None,
                       sigma: StackTy = NIL_STACK,
                       q: Optional[RetMarker] = None):
    """Type an FT component (T outside) under an explicit context."""
    if q is None:
        raise FTTypeError("a component needs a return marker q",
                          judgment="ft.component")
    checker = FTTypechecker(psi, gamma)
    st = InstrState(delta, chi if chi is not None else RegFileTy(), sigma, q)
    return checker.check_component(st, comp)
