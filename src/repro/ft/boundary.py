"""FT boundary *value* translations (paper Fig 10).

Two type-directed metafunctions move values across the language boundary at
runtime:

* ``TFtau(v, M) = (w, M')`` (:func:`f_to_t`): an F value becomes a T word.
  Base values map directly; tuples are allocated as immutable heap tuples;
  a lambda becomes a *code block*, allocated in the heap, that implements
  the calling convention: save the return continuation on the stack, rebuild
  the original lambda application as an ``import``-ed F expression whose
  arguments are boundary components reading the stack, then restore the
  continuation, clear the arguments, and ``ret``.  The block depends only
  on the lambda and its type, so it is built once per (lambda, type) and
  kept on the lambda; every crossing binds it under a fresh label.

* ``tauFT(w, M) = (v, M')`` (:func:`t_to_f`): a T word becomes an F value.
  Base values map directly; heap tuples are read back field by field; a
  code pointer becomes a *lambda* whose body is a boundary component that
  protects the stack, pushes the (translated) arguments, installs a fresh
  halting continuation ``l_end``, and ``call``s the original code pointer.
  The lambda is built afresh per crossing (its ``l_end`` label is
  allocated then); only ``l_end``'s code is shared, by shape.

The generated wrappers are exactly Fig 10's, and they typecheck under
:class:`repro.ft.typecheck.FTTypechecker` (verified in the test suite).

Stack-modifying lambdas (elided in the paper's figure, "similar") follow
the same shape but must ferry the visible stack prefix through registers to
re-arrange the continuation past it; this bounds the supported arity by the
register count (see :func:`build_stack_lambda_wrapper`).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.caching import LRUCache
from repro.errors import MachineError
from repro.obs.events import OBS
from repro.resilience.chaos import probe
from repro.f.syntax import (
    App, FArrow, FExpr, FInt, Fold as FFold, FRec, FTupleT, FType, FUnit,
    IntE, is_value, Lam, TupleE, UnitE, Var,
)
from repro.ft.lump import FLump, LumpVal
from repro.ft.syntax import (
    Boundary, FStackArrow, Import, Protect, StackDelta, StackLam,
)
from repro.ft.translate import (
    arrow_code_type, continuation_type, EPS, type_translation, ZETA,
)
from repro.tal.heap import Memory
from repro.tal.syntax import (
    BOX, Call, CodeType, Component, DeltaBind, Fold as TFoldV, Halt, HCode,
    HTuple, InstrSeq, KIND_EPS, KIND_ZETA, Loc, Mv, NIL_STACK, Operand,
    QEnd, QEps, QIdx, QReg, RegFileTy, RegOp, Ret, Salloc, Sfree, Sld, Sst,
    StackTy, TalType, TBox, TupleTy, TyApp, WInt, WLoc, WordValue, WUnit,
    seq,
)

__all__ = [
    "f_to_t", "t_to_f", "build_lambda_wrapper",
    "build_stack_lambda_wrapper", "build_call_back_lambda",
]


# ---------------------------------------------------------------------------
# TFtau(v, M): F value -> T word
# ---------------------------------------------------------------------------

def f_to_t(v: FExpr, ty: FType, mem: Memory) -> WordValue:
    """``TFtau(v, M) = (w, M')`` -- translate an F value into T,
    allocating in ``mem`` as needed."""
    probe("boundary.translate", lambda: f"TF[{ty}]")
    if OBS.enabled:
        OBS.metrics.inc("ft.translate.f_to_t")
    if not is_value(v):
        raise MachineError(f"boundary translation of a non-value {v}")
    if isinstance(ty, FInt):
        if not isinstance(v, IntE):
            raise MachineError(f"TF[int] applied to {v}")
        return WInt(v.value)
    if isinstance(ty, FUnit):
        if not isinstance(v, UnitE):
            raise MachineError(f"TF[unit] applied to {v}")
        return WUnit()
    if isinstance(ty, FRec):
        if not isinstance(v, FFold):
            raise MachineError(f"TF[mu] applied to {v}")
        inner = f_to_t(v.body, ty.unroll(), mem)
        return TFoldV(type_translation(ty), inner)
    if isinstance(ty, FTupleT):
        if not isinstance(v, TupleE) or len(v.items) != len(ty.items):
            raise MachineError(f"TF[tuple] applied to {v}")
        words = tuple(f_to_t(item, item_ty, mem)
                      for item, item_ty in zip(v.items, ty.items))
        loc = mem.alloc(HTuple(words), BOX, base="tup")
        return WLoc(loc)
    if isinstance(ty, FLump):
        if not isinstance(v, LumpVal):
            raise MachineError(f"TF[lump] applied to {v}")
        cell = mem.lookup(v.loc)
        if cell.nu != "ref":
            raise MachineError(
                f"lump {v.loc} does not point at a mutable tuple")
        return WLoc(v.loc)
    if isinstance(ty, FStackArrow):
        if not isinstance(v, Lam):
            raise MachineError(f"TF[stack-arrow] applied to {v}")
        block = _wrapper(v, ty, build_stack_lambda_wrapper)
        return WLoc(mem.alloc(block, BOX, base="slam"))
    if isinstance(ty, FArrow):
        if not isinstance(v, Lam):
            raise MachineError(f"TF[arrow] applied to {v}")
        block = _wrapper(v, ty, build_lambda_wrapper)
        return WLoc(mem.alloc(block, BOX, base="lam"))
    raise MachineError(f"no value translation into T at type {ty}")


def _wrapper(v: Lam, ty: FArrow,
             build: Callable[[Lam, FArrow], HCode]) -> HCode:
    """The wrapper block of ``v`` at ``ty``, built by ``build`` at the
    first crossing and kept in the lambda's ``_wrappers`` memo slot (one block per
    type).  Each crossing still binds it under a fresh label, as Fig 10
    allocates; the immutable block is shared, so the fast tier lowers it
    once and its memos and JIT state hit across crossings and runs."""
    memo = getattr(v, "_wrappers", None)
    if memo is None:
        memo = {}
        object.__setattr__(v, "_wrappers", memo)
    block = memo.get(ty)
    if block is None:
        block = memo.setdefault(ty, build(v, ty))
    return block


def build_lambda_wrapper(v: Lam, ty: FArrow) -> HCode:
    """Fig 10's ``TF(tau)->tau'`` code block for an F lambda ``v``.

    Calling convention: arguments on the stack (last on top), return
    continuation in ``ra``; the block saves the continuation to the stack,
    imports the F application whose arguments are boundary components that
    ``sld`` each argument and halt with it, then restores the continuation,
    frees the continuation + argument slots, and returns.  The block
    depends only on ``v`` and ``ty``, so :func:`f_to_t` builds it once
    per lambda and type.
    """
    n = len(ty.params)
    result_t = type_translation(ty.result)
    param_ts = tuple(type_translation(p) for p in ty.params)
    cont = continuation_type(result_t, StackTy((), ZETA))
    # Stack during the import:  cont :: tau_nT :: ... :: tau_1T :: zeta
    inside = StackTy((cont,) + tuple(reversed(param_ts)), ZETA)
    args = tuple(
        Boundary(ty.params[i - 1],
                 Component(seq(
                     Sld("r1", n + 1 - i),
                     Halt(param_ts[i - 1], inside, "r1"))))
        for i in range(1, n + 1))
    body = App(v, args)
    return HCode(
        (DeltaBind(KIND_ZETA, ZETA), DeltaBind(KIND_EPS, EPS)),
        RegFileTy.of(ra=cont),
        StackTy(tuple(reversed(param_ts)), ZETA),
        QReg("ra"),
        seq(
            Salloc(1),
            Sst(0, "ra"),
            Import("r1", StackTy((), ZETA), ty.result, body),
            Sld("ra", 0),
            Sfree(n + 1),
            Ret("ra", "r1"),
        ))


def build_stack_lambda_wrapper(v: Lam, ty: FStackArrow) -> HCode:
    """The (paper-elided) wrapper for a stack-modifying lambda.

    The continuation must be stored *past* the exposed prefix ``phi_i``
    (paper section 4.2), so the block ferries the arguments and prefix
    through registers to rebuild the stack as
    ``phi_i :: args :: cont :: zeta``, imports the application, then
    ferries ``phi_o`` out of the way to drop the argument slots.

    Register budget: needs ``n + |phi_i| <= 7`` and ``|phi_o| + 1 <= 7``.
    """
    n = len(ty.params)
    p_in, p_out = len(ty.phi_in), len(ty.phi_out)
    if n + p_in > 7 or p_out + 1 > 7:
        raise MachineError(
            "stack-lambda wrapper exceeds the register budget "
            f"(n={n}, |phi_i|={p_in}, |phi_o|={p_out})")
    result_t = type_translation(ty.result)
    param_ts = tuple(type_translation(p) for p in ty.params)
    cont = continuation_type(result_t, StackTy(tuple(ty.phi_out), ZETA))
    entry_sigma = StackTy(
        tuple(reversed(param_ts)) + tuple(ty.phi_in), ZETA)

    instrs: List = []
    # 1. Ferry args (slots 0..n-1, top = last arg) and phi_i (slots
    #    n..n+p_in-1) into registers r1..r(n+p_in).
    for k in range(n + p_in):
        instrs.append(Sld(f"r{k + 1}", k))
    instrs.append(Sfree(n + p_in))
    # 2. Store the continuation at the bottom of the working area.
    instrs.append(Salloc(1))
    instrs.append(Sst(0, "ra"))
    # 3. Rebuild: args above cont (last arg on top), then phi_i on top.
    #    Register r(k+1) currently holds old slot k: r1..rn = args
    #    (r1 = last arg), r(n+1).. = phi_i (r(n+1) = top of phi_i).
    for k in range(n, 0, -1):          # push first-arg-deepest
        instrs.append(Salloc(1))
        instrs.append(Sst(0, f"r{k}"))
    for k in range(n + p_in, n, -1):
        instrs.append(Salloc(1))
        instrs.append(Sst(0, f"r{k}"))
    # Stack now: phi_i :: arg_n..arg_1 :: cont :: zeta; marker at n + p_in.
    inside = StackTy(
        tuple(ty.phi_in) + tuple(reversed(param_ts)) + (cont,), ZETA)
    args = tuple(
        Boundary(ty.params[i - 1],
                 Component(seq(
                     Sld("r1", p_in + n - i),
                     Halt(param_ts[i - 1], inside, "r1"))))
        for i in range(1, n + 1))
    body = App(v, args)
    instrs.append(Import(
        "r1", StackTy((), ZETA), ty.result, body))
    # Stack: phi_o :: args :: cont :: zeta; result in r1; marker at
    # p_out + n.  Ferry phi_o out, drop args, recover cont, restore phi_o.
    for k in range(p_out):
        instrs.append(Sld(f"r{k + 2}", k))
    instrs.append(Sfree(p_out + n))
    instrs.append(Sld("ra", 0))
    instrs.append(Sfree(1))
    for k in range(p_out, 0, -1):
        instrs.append(Salloc(1))
        instrs.append(Sst(0, f"r{k + 1}"))
    return HCode(
        (DeltaBind(KIND_ZETA, ZETA), DeltaBind(KIND_EPS, EPS)),
        RegFileTy.of(ra=cont), entry_sigma, QReg("ra"),
        InstrSeq(tuple(instrs), Ret("ra", "r1")))


# ---------------------------------------------------------------------------
# tauFT(w, M): T word -> F value
# ---------------------------------------------------------------------------

def t_to_f(w: WordValue, ty: FType, mem: Memory) -> FExpr:
    """``tauFT(w, M) = (v, M')`` -- translate a T word into F."""
    probe("boundary.translate", lambda: f"{ty}FT")
    if OBS.enabled:
        OBS.metrics.inc("ft.translate.t_to_f")
    if isinstance(ty, FInt):
        return IntE(_expect(w, WInt, "int").value)
    if isinstance(ty, FUnit):
        _expect(w, WUnit, "unit")
        return UnitE()
    if isinstance(ty, FRec):
        w = _expect(w, TFoldV, "mu")
        return FFold(ty, t_to_f(w.body, ty.unroll(), mem))
    if isinstance(ty, FTupleT):
        w = _expect(w, WLoc, "tuple")
        tup = mem.tuple_at(w.loc)
        if len(tup.words) != len(ty.items):
            raise MachineError(
                f"FT[tuple] width mismatch at {w.loc}: {len(tup.words)} "
                f"fields for {ty}")
        return TupleE(tuple(
            t_to_f(word, item_ty, mem)
            for word, item_ty in zip(tup.words, ty.items)))
    if isinstance(ty, FLump):
        w = _expect(w, WLoc, "lump")
        cell = mem.lookup(w.loc)
        if cell.nu != "ref":
            raise MachineError(
                f"FT[lump]: {w.loc} is not a mutable tuple")
        return LumpVal(w.loc)
    if isinstance(ty, (FArrow, FStackArrow)):
        return build_call_back_lambda(w, ty, mem)
    raise MachineError(f"no value translation into F at type {ty}")


def _expect(w: WordValue, form: type, ty: str) -> WordValue:
    """``w``, if it has the value form a boundary at ``ty`` translates."""
    if not isinstance(w, form):
        raise MachineError(f"FT[{ty}] applied to {w}")
    return w


#: (result type, out stack) -> the halting continuation block ``l_end``
#: is bound to.  Every crossing allocates a fresh label, but all labels
#: of one shape share one immutable HCode, so the fast T tier builds its
#: block (and the memos keyed on it) once instead of once per crossing.
_LEND_CODE = LRUCache(256)


def _lend_code(result_t: TalType, out_stack: StackTy) -> HCode:
    key = (result_t, out_stack)
    hend = _LEND_CODE.get(key)
    if hend is None:
        hend = HCode(
            (DeltaBind(KIND_ZETA, ZETA),),
            RegFileTy.of(r1=result_t), out_stack,
            QEnd(result_t, out_stack),
            seq(Halt(result_t, out_stack, "r1")))
        _LEND_CODE.put(key, hend)
    return hend


def build_call_back_lambda(w: WordValue, ty: FArrow, mem: Memory) -> Lam:
    """Fig 10's ``(tau)->tau'FT`` lambda wrapping a T code pointer ``w``.

    The body is a boundary component: ``protect`` the caller's stack
    (keeping ``phi_i`` visible for stack-arrows), import-and-push each
    argument, install a fresh halting continuation ``l_end``, and ``call``
    ``w``.  ``l_end`` is allocated in ``mem`` here, at translation time.
    """
    if isinstance(ty, FStackArrow):
        phi_in, phi_out = tuple(ty.phi_in), tuple(ty.phi_out)
    else:
        phi_in, phi_out = (), ()
    n = len(ty.params)
    result_t = type_translation(ty.result)
    param_ts = tuple(type_translation(p) for p in ty.params)
    out_stack = StackTy(phi_out, ZETA)

    lend = mem.alloc(_lend_code(result_t, out_stack), BOX, base="lend")

    params = tuple((f"x{i}", ty.params[i - 1]) for i in range(1, n + 1))
    instrs: List = [Protect(phi_in, ZETA)]
    for i in range(1, n + 1):
        # Protect the whole current stack: the imported expression is just
        # a variable reference and touches nothing.
        protected = StackTy(
            tuple(reversed(param_ts[:i - 1])) + phi_in, ZETA)
        instrs.append(Import("r1", protected, ty.params[i - 1],
                             Var(f"x{i}")))
        instrs.append(Salloc(1))
        instrs.append(Sst(0, "r1"))
    instrs.append(Mv("ra", TyApp(WLoc(lend), (StackTy(phi_out, ZETA),))))
    comp = Component(InstrSeq(
        tuple(instrs),
        Call(w, StackTy((), ZETA),
             QEnd(result_t, StackTy(phi_out, ZETA)))))
    body = Boundary(ty.result, comp,
                    StackDelta(pops=len(phi_in), pushes=phi_out))
    if isinstance(ty, FStackArrow):
        return StackLam(params, body, phi_in, phi_out)
    return Lam(params, body)
