"""The T type system (paper Fig 2 plus the standard elided rules).

Judgments implemented:

* operand typing             ``Psi; Delta; chi |- u : tau``
* instruction typing         ``Psi; Delta; chi; sigma; q |- iota => Delta'; chi'; sigma'; q'``
* sequence typing            ``Psi; Delta; chi; sigma; q |- I``
* terminator typing          (the ``jmp``/``call``/``ret``/``halt`` cases of the above)
* heap-value typing          ``Psi |- h : psi``
* component typing           ``Psi; Delta; chi; sigma; q |- (I, H) : tau; sigma'``
* runtime word/memory typing ``Psi |- w : tau``, ``Psi |- M`` (for the
  preservation property tests; the paper elides these as standard)

The threading of the four-tuple ``(Delta, chi, sigma, q)`` through an
instruction sequence is packaged as :class:`InstrState`; each instruction
consumes one state and produces the next, mirroring the paper's
postcondition-becomes-precondition discipline (illustrated by the
``mv 42 / salloc / sst`` example in section 3, reproduced in our tests).

Return-marker bookkeeping follows the paper exactly:

* ``mv`` has two cases -- moving an ordinary value, and moving the return
  continuation itself, which relocates the marker to the destination
  register;
* ``sst``/``sld`` similarly relocate the marker between a register and a
  stack slot;
* stack allocation/free/``ralloc``/``balloc`` shift a stack-index marker by
  the number of cells pushed or popped, and may never consume the marker
  slot;
* no ordinary instruction may overwrite the register or slot holding the
  marker.

The two ``call`` rules (current marker ``end{...}`` vs a stack index ``i``)
implement the paper's relocation arithmetic: with ``m`` exposed input slots
and ``n`` exposed continuation-output slots on the callee's type, a marker
at slot ``i >= m`` resurfaces at slot ``i + n - m``.

FT's extra instructions hook in through :class:`TalTypechecker` subclassing
(see :class:`repro.ft.typecheck.FTTypechecker`).

The checker is allocation-light but skips nothing: each instruction, operand
and terminator reaches its rule through a per-class table indexed by node
type, each step builds its successor :class:`InstrState` directly, and the
well-formedness side conditions are memoized per (type node, Delta) on the
hash-consed types (:mod:`repro.tal.wellformed`).  No memo is keyed by a
block, component or term, so every instruction of every block is stepped
each time a program is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import FTTypeError
from repro.obs.events import OBS
from repro.tal.equality import types_equal
from repro.tal.retmarker import continuation_parts, ret_addr_type, ret_type
from repro.tal.subst import Subst, instantiate_code_type, subst_ty
from repro.tal.subtyping import check_regfile_subtype
from repro.tal.syntax import (
    Aop, Balloc, Bnz, BOX, Call, CodeType, Component, Delta, DeltaBind,
    Fold, Halt, HCode, HeapTy, HeapValType, HeapValue, HTuple, InstrSeq,
    Instruction, Jmp, KIND_ALPHA, KIND_EPS, KIND_ZETA, Ld, Loc, Mv,
    NIL_STACK, Operand, Pack, QEnd, QEps, QIdx, QReg, Ralloc, RegFileTy,
    RegOp, Ret, RetMarker, Salloc, Sfree, Sld, Sst, St, StackTy, TalType,
    TBox, Terminator, TExists, TInt, TRec, TRef, TupleTy, TUnit, TVar, TyApp,
    UnfoldI, Unpack, WInt, WLoc, WordValue, WUnit,
)
from repro.tal.wellformed import (
    check_chi_minus_q_wf, check_chi_wf, check_delta_wf, check_psi_wf,
    check_q_restriction, check_q_wf, check_stack_wf, check_type_wf,
)

__all__ = [
    "InstrState", "TalTypechecker", "check_component", "check_program",
    "type_of_word", "check_memory",
]


@dataclass(frozen=True)
class InstrState:
    """The ``(Delta; chi; sigma; q)`` context threaded through a sequence."""

    delta: Delta
    chi: RegFileTy
    sigma: StackTy
    q: RetMarker

    def __str__(self) -> str:
        delta = ", ".join(str(b) for b in self.delta) or "."
        return f"{delta}; {self.chi}; {self.sigma}; {self.q}"


def _fail(msg: str, judgment: str, subject) -> FTTypeError:
    return FTTypeError(msg, judgment=judgment, subject=str(subject))


_UNIT = TUnit()
_INT = TInt()

#: The name of the rule method for each node class, per judgment.  Names
#: are resolved on each checker class (see
#: :meth:`TalTypechecker._bind_rules`), so a subclass that overrides a
#: rule is dispatched to its override.
_INSTR_RULES = {
    Mv: "_step_mv", Aop: "_step_aop", Bnz: "_step_bnz", Ld: "_step_ld",
    St: "_step_st", Ralloc: "_step_ralloc", Balloc: "_step_balloc",
    Salloc: "_step_salloc", Sfree: "_step_sfree", Sld: "_step_sld",
    Sst: "_step_sst", Unpack: "_step_unpack", UnfoldI: "_step_unfold",
}
_OPERAND_RULES = {
    WUnit: "_type_unit", WInt: "_type_int", WLoc: "_type_loc",
    RegOp: "_type_reg", Pack: "_type_pack", Fold: "_type_fold",
    TyApp: "_type_tyapp",
}
_TERM_RULES = {
    Halt: "_check_halt", Jmp: "_check_jmp", Ret: "_check_ret",
    Call: "_check_call",
}


#: The ``typecheck.t.instr.*`` / ``typecheck.t.term.*`` counter of each
#: instruction and terminator class, named on first use.
_COUNTERS: Dict[type, str] = {}


def _counter(family: str, node) -> str:
    cls = node.__class__
    name = _COUNTERS.get(cls)
    if name is None:
        name = _COUNTERS[cls] = f"typecheck.t.{family}.{cls.__name__.lower()}"
    return name


def _same_restriction(a: InstrState, b: InstrState) -> bool:
    """Does the marker restriction judgment read the same inputs in ``b``
    as in ``a``, a state that passed it?  It reads Delta and q, plus the
    marker's register type for a register marker and its slot type for a
    stack-index one."""
    q = b.q
    if q is not a.q or b.delta is not a.delta:
        return False
    if isinstance(q, QReg):
        return b.chi is a.chi or b.chi.get(q.reg) is a.chi.get(q.reg)
    if isinstance(q, QIdx):
        return (b.sigma is a.sigma
                or (q.index < len(b.sigma.prefix)
                    and b.sigma.prefix[q.index] is a.sigma.prefix[q.index]))
    return True


class TalTypechecker:
    """Typechecker for T terms under a fixed static heap typing ``Psi``."""

    _instr_rules: Dict[type, Callable]
    _operand_rules: Dict[type, Callable]
    _term_rules: Dict[type, Callable]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._bind_rules()

    @classmethod
    def _bind_rules(cls) -> None:
        cls._instr_rules = {node: getattr(cls, name)
                            for node, name in _INSTR_RULES.items()}
        cls._operand_rules = {node: getattr(cls, name)
                              for node, name in _OPERAND_RULES.items()}
        cls._term_rules = {node: getattr(cls, name)
                           for node, name in _TERM_RULES.items()}

    def __init__(self, psi: Optional[HeapTy] = None):
        self.psi = psi if psi is not None else HeapTy()

    def with_psi(self, psi: HeapTy) -> "TalTypechecker":
        """A copy of this checker (same dialect) under a different ``Psi``."""
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.psi = psi
        return clone

    # ------------------------------------------------------------------
    # Operands:  Psi; Delta; chi |- u : tau
    # ------------------------------------------------------------------

    def type_of_operand(self, delta: Delta, chi: RegFileTy,
                        u: Operand) -> TalType:
        rule = self._operand_rules.get(u.__class__)
        if rule is None:
            raise _fail(f"unknown operand form {type(u).__name__}",
                        "tal.operand", u)
        return rule(self, delta, chi, u)

    def _type_unit(self, delta: Delta, chi: RegFileTy, u: WUnit) -> TalType:
        return _UNIT

    def _type_int(self, delta: Delta, chi: RegFileTy, u: WInt) -> TalType:
        return _INT

    def _type_loc(self, delta: Delta, chi: RegFileTy, u: WLoc) -> TalType:
        entry = self.psi.get(u.loc)
        if entry is None:
            raise _fail(f"location {u.loc} not in Psi", "tal.operand", u)
        nu, psi = entry
        if nu == BOX:
            return TBox(psi)
        if not isinstance(psi, TupleTy):
            raise _fail(
                f"mutable location {u.loc} holds non-tuple type {psi}",
                "tal.operand", u)
        return TRef(psi.items)

    def _type_reg(self, delta: Delta, chi: RegFileTy, u: RegOp) -> TalType:
        ty = chi.get(u.reg)
        if ty is None:
            raise _fail(f"register {u.reg} not in chi = {chi}",
                        "tal.operand", u)
        return ty

    def _type_pack(self, delta: Delta, chi: RegFileTy, u: Pack) -> TalType:
        if not isinstance(u.as_ty, TExists):
            raise _fail(f"pack annotation {u.as_ty} is not existential",
                        "tal.operand", u)
        check_type_wf(delta, u.hidden)
        check_type_wf(delta, u.as_ty)
        body_ty = self.type_of_operand(delta, chi, u.body)
        expected = subst_ty(
            u.as_ty.body, Subst.single(KIND_ALPHA, u.as_ty.var, u.hidden))
        if not types_equal(body_ty, expected):
            raise _fail(
                f"pack body has type {body_ty}, expected {expected}",
                "tal.operand", u)
        return u.as_ty

    def _type_fold(self, delta: Delta, chi: RegFileTy, u: Fold) -> TalType:
        if not isinstance(u.as_ty, TRec):
            raise _fail(f"fold annotation {u.as_ty} is not recursive",
                        "tal.operand", u)
        check_type_wf(delta, u.as_ty)
        body_ty = self.type_of_operand(delta, chi, u.body)
        unrolled = subst_ty(
            u.as_ty.body, Subst.single(KIND_ALPHA, u.as_ty.var, u.as_ty))
        if not types_equal(body_ty, unrolled):
            raise _fail(
                f"fold body has type {body_ty}, expected unrolling "
                f"{unrolled}", "tal.operand", u)
        return u.as_ty

    def _type_tyapp(self, delta: Delta, chi: RegFileTy,
                    u: TyApp) -> TalType:
        body_ty = self.type_of_operand(delta, chi, u.body)
        if not isinstance(body_ty, TBox) or not isinstance(
                body_ty.psi, CodeType):
            raise _fail(
                f"type application to non-code-pointer type {body_ty}",
                "tal.operand", u)
        ct = body_ty.psi
        if len(u.insts) > len(ct.delta):
            raise _fail(
                f"too many instantiations ({len(u.insts)}) for "
                f"{ct}", "tal.operand", u)
        for omega in u.insts:
            self._check_omega_wf(delta, omega)
        return TBox(instantiate_code_type(ct, tuple(u.insts)))

    def _check_omega_wf(self, delta: Delta, omega) -> None:
        if isinstance(omega, TalType):
            check_type_wf(delta, omega)
        elif isinstance(omega, StackTy):
            check_stack_wf(delta, omega)
        elif isinstance(omega, RetMarker):
            check_q_wf(delta, omega)
        else:  # pragma: no cover - TyApp constructor already rejects
            raise _fail(f"bad instantiation {omega!r}", "tal.omega", omega)

    # ------------------------------------------------------------------
    # Single instructions
    # ------------------------------------------------------------------

    def step_instruction(self, st: InstrState, i: Instruction) -> InstrState:
        """``Psi; Delta; chi; sigma; q |- iota => Delta'; chi'; sigma'; q'``."""
        if OBS.enabled:
            OBS.metrics.inc(_counter("instr", i))
        rule = self._instr_rules.get(i.__class__)
        if rule is None:
            return self.step_extended_instruction(st, i)
        return rule(self, st, i)

    def step_extended_instruction(self, st: InstrState,
                                  i: Instruction) -> InstrState:
        """Hook for multi-language instructions; pure T has none."""
        raise _fail(
            f"instruction {type(i).__name__} is not a pure T instruction "
            "(use the FT typechecker for mixed programs)",
            "tal.instruction", i)

    def _guard_not_marker_dest(self, st: InstrState, rd: str,
                               subject) -> None:
        if isinstance(st.q, QReg) and st.q.reg == rd:
            raise _fail(
                f"instruction would overwrite the return marker register "
                f"{rd}", "tal.instruction", subject)

    def _step_mv(self, st: InstrState, i: Mv) -> InstrState:
        # Second mv case (paper Fig 2): moving the return continuation
        # itself relocates the marker to rd.
        if (isinstance(i.u, RegOp) and isinstance(st.q, QReg)
                and i.u.reg == st.q.reg):
            ty = st.chi.get(i.u.reg)
            if ty is None:  # pragma: no cover - q-restriction precludes
                raise _fail(f"marker register {i.u.reg} untyped",
                            "tal.instruction", i)
            return InstrState(st.delta, st.chi.set(i.rd, ty), st.sigma,
                              QReg(i.rd))
        # First case: an ordinary move; may not clobber the marker.
        self._guard_not_marker_dest(st, i.rd, i)
        ty = self.type_of_operand(st.delta, st.chi, i.u)
        return InstrState(st.delta, st.chi.set(i.rd, ty), st.sigma, st.q)

    def _step_aop(self, st: InstrState, i: Aop) -> InstrState:
        self._guard_not_marker_dest(st, i.rd, i)
        src_ty = st.chi.get(i.rs)
        if src_ty is None or not isinstance(src_ty, TInt):
            raise _fail(
                f"arithmetic source {i.rs} has type {src_ty}, expected int",
                "tal.instruction", i)
        op_ty = self.type_of_operand(st.delta, st.chi, i.u)
        if not isinstance(op_ty, TInt):
            raise _fail(
                f"arithmetic operand has type {op_ty}, expected int",
                "tal.instruction", i)
        return InstrState(st.delta, st.chi.set(i.rd, _INT), st.sigma, st.q)

    def _step_bnz(self, st: InstrState, i: Bnz) -> InstrState:
        scrut_ty = st.chi.get(i.r)
        if scrut_ty is None or not isinstance(scrut_ty, TInt):
            raise _fail(
                f"bnz scrutinee {i.r} has type {scrut_ty}, expected int",
                "tal.instruction", i)
        target = self.type_of_operand(st.delta, st.chi, i.u)
        ct = self._expect_instantiated_code(target, i)
        check_regfile_subtype(st.delta, st.chi, ct.chi)
        if not types_equal(st.sigma, ct.sigma):
            raise _fail(
                f"bnz target expects stack {ct.sigma}, current is "
                f"{st.sigma}", "tal.instruction", i)
        if not types_equal(ct.q, st.q):
            raise _fail(
                f"bnz is an intra-component jump: target marker {ct.q} "
                f"must equal current marker {st.q}", "tal.instruction", i)
        return st

    def _expect_instantiated_code(self, ty: TalType, subject) -> CodeType:
        if (not isinstance(ty, TBox)
                or not isinstance(ty.psi, CodeType)):
            raise _fail(f"jump target has non-code type {ty}",
                        "tal.instruction", subject)
        if ty.psi.delta:
            raise _fail(
                f"jump target type {ty} still abstracts "
                f"{[str(b) for b in ty.psi.delta]}; instantiate first",
                "tal.instruction", subject)
        return ty.psi

    def _step_ld(self, st: InstrState, i: Ld) -> InstrState:
        self._guard_not_marker_dest(st, i.rd, i)
        src_ty = st.chi.get(i.rs)
        if isinstance(src_ty, TRef):
            items = src_ty.items
        elif isinstance(src_ty, TBox) and isinstance(src_ty.psi, TupleTy):
            items = src_ty.psi.items
        else:
            raise _fail(
                f"ld source {i.rs} has type {src_ty}, expected a tuple "
                "pointer", "tal.instruction", i)
        if not 0 <= i.index < len(items):
            raise _fail(
                f"ld index {i.index} out of range for {src_ty}",
                "tal.instruction", i)
        return InstrState(st.delta, st.chi.set(i.rd, items[i.index]),
                          st.sigma, st.q)

    def _step_st(self, st: InstrState, i: St) -> InstrState:
        dst_ty = st.chi.get(i.rd)
        if not isinstance(dst_ty, TRef):
            raise _fail(
                f"st destination {i.rd} has type {dst_ty}; only mutable "
                "(ref) tuples may be stored to", "tal.instruction", i)
        if not 0 <= i.index < len(dst_ty.items):
            raise _fail(
                f"st index {i.index} out of range for {dst_ty}",
                "tal.instruction", i)
        src_ty = st.chi.get(i.rs)
        if src_ty is None:
            raise _fail(f"st source {i.rs} not in chi", "tal.instruction", i)
        if not types_equal(src_ty, dst_ty.items[i.index]):
            raise _fail(
                f"st stores {src_ty} into a field of type "
                f"{dst_ty.items[i.index]}", "tal.instruction", i)
        return st

    def _step_ralloc(self, st: InstrState, i: Ralloc) -> InstrState:
        return self._step_alloc(st, i.rd, i.n, mutable=True, subject=i)

    def _step_balloc(self, st: InstrState, i: Balloc) -> InstrState:
        return self._step_alloc(st, i.rd, i.n, mutable=False, subject=i)

    def _step_alloc(self, st: InstrState, rd: str, n: int, *,
                    mutable: bool, subject) -> InstrState:
        self._guard_not_marker_dest(st, rd, subject)
        if st.sigma.depth < n:
            raise _fail(
                f"allocation of {n} cells but only {st.sigma.depth} stack "
                f"slots exposed in {st.sigma}", "tal.instruction", subject)
        if isinstance(st.q, QIdx) and st.q.index < n:
            raise _fail(
                f"allocation would consume the return-marker slot "
                f"{st.q.index}", "tal.instruction", subject)
        taken = st.sigma.prefix[:n]
        new_ty: TalType = TRef(taken) if mutable else TBox(TupleTy(taken))
        new_q = QIdx(st.q.index - n) if isinstance(st.q, QIdx) else st.q
        return InstrState(st.delta, st.chi.set(rd, new_ty),
                          st.sigma.drop(n), new_q)

    def _step_salloc(self, st: InstrState, i: Salloc) -> InstrState:
        if i.n < 0:
            raise _fail("salloc of negative count", "tal.instruction", i)
        new_sigma = st.sigma.cons(*([_UNIT] * i.n))
        new_q = QIdx(st.q.index + i.n) if isinstance(st.q, QIdx) else st.q
        return InstrState(st.delta, st.chi, new_sigma, new_q)

    def _step_sfree(self, st: InstrState, i: Sfree) -> InstrState:
        if st.sigma.depth < i.n:
            raise _fail(
                f"sfree {i.n} but only {st.sigma.depth} slots exposed in "
                f"{st.sigma}", "tal.instruction", i)
        new_q = st.q
        if isinstance(new_q, QIdx):
            if new_q.index < i.n:
                raise _fail(
                    f"sfree would free the return-marker slot "
                    f"{new_q.index}", "tal.instruction", i)
            new_q = QIdx(new_q.index - i.n)
        return InstrState(st.delta, st.chi, st.sigma.drop(i.n), new_q)

    def _step_sld(self, st: InstrState, i: Sld) -> InstrState:
        if not st.sigma.has_slot(i.index):
            raise _fail(
                f"sld from slot {i.index}, not exposed in {st.sigma}",
                "tal.instruction", i)
        ty = st.sigma.prefix[i.index]
        # Loading the return continuation relocates the marker into rd.
        if isinstance(st.q, QIdx) and st.q.index == i.index:
            return InstrState(st.delta, st.chi.set(i.rd, ty), st.sigma,
                              QReg(i.rd))
        self._guard_not_marker_dest(st, i.rd, i)
        return InstrState(st.delta, st.chi.set(i.rd, ty), st.sigma, st.q)

    def _step_sst(self, st: InstrState, i: Sst) -> InstrState:
        if not st.sigma.has_slot(i.index):
            raise _fail(
                f"sst to slot {i.index}, not exposed in {st.sigma}",
                "tal.instruction", i)
        ty = st.chi.get(i.rs)
        if ty is None:
            raise _fail(f"sst source {i.rs} not in chi", "tal.instruction", i)
        # Storing the return continuation relocates the marker to slot i.
        if isinstance(st.q, QReg) and st.q.reg == i.rs:
            return InstrState(st.delta, st.chi,
                              st.sigma.set_slot(i.index, ty), QIdx(i.index))
        if isinstance(st.q, QIdx) and st.q.index == i.index:
            raise _fail(
                f"sst would overwrite the return-marker slot {i.index}",
                "tal.instruction", i)
        return InstrState(st.delta, st.chi, st.sigma.set_slot(i.index, ty),
                          st.q)

    def _step_unpack(self, st: InstrState, i: Unpack) -> InstrState:
        self._guard_not_marker_dest(st, i.rd, i)
        ty = self.type_of_operand(st.delta, st.chi, i.u)
        if not isinstance(ty, TExists):
            raise _fail(f"unpack of non-existential type {ty}",
                        "tal.instruction", i)
        if i.alpha in {b.name for b in st.delta}:
            raise _fail(
                f"unpack binder {i.alpha} shadows an existing type "
                "variable; pick a fresh name", "tal.instruction", i)
        opened = subst_ty(
            ty.body, Subst.single(KIND_ALPHA, ty.var, TVar(i.alpha)))
        return InstrState(st.delta + (DeltaBind(KIND_ALPHA, i.alpha),),
                          st.chi.set(i.rd, opened), st.sigma, st.q)

    def _step_unfold(self, st: InstrState, i: UnfoldI) -> InstrState:
        self._guard_not_marker_dest(st, i.rd, i)
        ty = self.type_of_operand(st.delta, st.chi, i.u)
        if not isinstance(ty, TRec):
            raise _fail(f"unfold of non-recursive type {ty}",
                        "tal.instruction", i)
        unrolled = subst_ty(ty.body, Subst.single(KIND_ALPHA, ty.var, ty))
        return InstrState(st.delta, st.chi.set(i.rd, unrolled), st.sigma,
                          st.q)

    # ------------------------------------------------------------------
    # Terminators
    # ------------------------------------------------------------------

    def check_terminator(self, st: InstrState, t: Terminator) -> None:
        if OBS.enabled:
            OBS.metrics.inc(_counter("term", t))
        rule = self._term_rules.get(t.__class__)
        if rule is None:
            raise _fail(f"unknown terminator {type(t).__name__}",
                        "tal.terminator", t)
        rule(self, st, t)

    def _check_halt(self, st: InstrState, t: Halt) -> None:
        if not isinstance(st.q, QEnd):
            raise _fail(
                f"halt requires an end{{...}} return marker, current is "
                f"{st.q}", "tal.terminator", t)
        if not types_equal(t.ty, st.q.ty):
            raise _fail(
                f"halt announces type {t.ty} but the marker promises "
                f"{st.q.ty}", "tal.terminator", t)
        if not types_equal(t.sigma, st.q.sigma):
            raise _fail(
                f"halt announces stack {t.sigma} but the marker promises "
                f"{st.q.sigma}", "tal.terminator", t)
        if not types_equal(st.sigma, t.sigma):
            raise _fail(
                f"halt with stack {st.sigma}, expected {t.sigma}",
                "tal.terminator", t)
        val_ty = st.chi.get(t.r)
        if val_ty is None or not types_equal(val_ty, t.ty):
            raise _fail(
                f"halt register {t.r} has type {val_ty}, expected {t.ty}",
                "tal.terminator", t)

    def _check_jmp(self, st: InstrState, t: Jmp) -> None:
        target = self.type_of_operand(st.delta, st.chi, t.u)
        ct = self._expect_instantiated_code(target, t)
        check_regfile_subtype(st.delta, st.chi, ct.chi)
        if not types_equal(st.sigma, ct.sigma):
            raise _fail(
                f"jmp target expects stack {ct.sigma}, current is "
                f"{st.sigma}", "tal.terminator", t)
        if not types_equal(ct.q, st.q):
            raise _fail(
                f"jmp is an intra-component jump: target marker {ct.q} "
                f"must equal current marker {st.q}", "tal.terminator", t)

    def _check_ret(self, st: InstrState, t: Ret) -> None:
        if not (isinstance(st.q, QReg) and st.q.reg == t.r):
            raise _fail(
                f"ret through {t.r} but the return marker is {st.q}",
                "tal.terminator", t)
        cont_ty = st.chi.get(t.r)
        parts = continuation_parts(cont_ty) if cont_ty is not None else None
        if parts is None:
            raise _fail(
                f"ret register {t.r} has non-continuation type {cont_ty}",
                "tal.terminator", t)
        expected_reg, val_ty, cont_sigma, _ = parts
        if t.rr != expected_reg:
            raise _fail(
                f"ret passes its result in {t.rr} but the continuation "
                f"expects it in {expected_reg}", "tal.terminator", t)
        actual = st.chi.get(t.rr)
        if actual is None or not types_equal(actual, val_ty):
            raise _fail(
                f"ret result register {t.rr} has type {actual}, the "
                f"continuation expects {val_ty}", "tal.terminator", t)
        if not types_equal(st.sigma, cont_sigma):
            raise _fail(
                f"ret with stack {st.sigma}, the continuation expects "
                f"{cont_sigma}", "tal.terminator", t)

    def _check_call(self, st: InstrState, t: Call) -> None:
        target = self.type_of_operand(st.delta, st.chi, t.u)
        if (not isinstance(target, TBox)
                or not isinstance(target.psi, CodeType)):
            raise _fail(f"call target has non-code type {target}",
                        "tal.terminator", t)
        ct = target.psi
        if (len(ct.delta) != 2 or ct.delta[0].kind != KIND_ZETA
                or ct.delta[1].kind != KIND_EPS):
            raise _fail(
                f"call target must abstract exactly [zeta, eps]; its type "
                f"is {ct}", "tal.terminator", t)
        zeta, eps = ct.delta[0].name, ct.delta[1].name
        check_chi_minus_q_wf(st.delta, ct.chi, ct.q)
        cont = ret_addr_type(ct.q, ct.chi, ct.sigma)
        if cont.delta:
            raise _fail(
                f"callee continuation type {cont} must have an empty "
                "Delta", "tal.terminator", t)
        if not (isinstance(cont.q, QEps) and cont.q.name == eps):
            raise _fail(
                f"callee continuation marker is {cont.q}; it must be the "
                f"callee's abstract eps {eps}", "tal.terminator", t)
        cont_entries = cont.chi.items()
        if len(cont_entries) != 1:  # pragma: no cover - ret_addr_type shape
            raise _fail("callee continuation must expect one register",
                        "tal.terminator", t)
        (_, ret_val_ty), = cont_entries
        check_type_wf(st.delta, ret_val_ty)
        if ct.sigma.tail != zeta:
            raise _fail(
                f"callee input stack {ct.sigma} must end in its abstract "
                f"tail {zeta}", "tal.terminator", t)
        if cont.sigma.tail != zeta:
            raise _fail(
                f"callee continuation stack {cont.sigma} must end in the "
                f"same abstract tail {zeta}", "tal.terminator", t)
        m = len(ct.sigma.prefix)       # exposed input slots
        n = len(cont.sigma.prefix)     # exposed output slots
        # Current stack must be the callee's exposed prefix over sigma_0.
        if st.sigma.depth < m:
            raise _fail(
                f"call needs {m} exposed argument slots, current stack is "
                f"{st.sigma}", "tal.terminator", t)
        for k in range(m):
            if not types_equal(st.sigma.prefix[k], ct.sigma.prefix[k]):
                raise _fail(
                    f"stack slot {k} has type {st.sigma.prefix[k]}, callee "
                    f"expects {ct.sigma.prefix[k]}", "tal.terminator", t)
        if not types_equal(st.sigma.drop(m), t.sigma):
            raise _fail(
                f"protected tail {t.sigma} does not match the current "
                f"stack remainder {st.sigma.drop(m)}", "tal.terminator", t)
        check_stack_wf(st.delta, t.sigma)
        # The two call rules, by the shape of the *current* marker.
        if isinstance(st.q, QEnd):
            if not types_equal(t.q, st.q):
                raise _fail(
                    f"call under an end marker must pass that marker; got "
                    f"{t.q}, current {st.q}", "tal.terminator", t)
            eps_inst: RetMarker = st.q
        elif isinstance(st.q, QIdx):
            i = st.q.index
            if i < m:
                raise _fail(
                    f"marker slot {i} lies within the {m} argument slots "
                    "consumed by the call", "tal.terminator", t)
            shifted = QIdx(i + n - m)
            if not types_equal(t.q, shifted):
                raise _fail(
                    f"call must relocate the marker to slot {shifted.index}"
                    f" (i + k - j); instruction says {t.q}",
                    "tal.terminator", t)
            eps_inst = shifted
        else:
            raise _fail(
                f"call requires the current marker to be end{{...}} or a "
                f"stack index; it is {st.q}", "tal.terminator", t)
        # The callee's type at [t.sigma/zeta, eps_inst/eps]: the memoized
        # instantiation hands back one node per (callee, omegas), so its
        # well-formedness is walked once per Delta.  The continuation's
        # instantiated stack is read off it (the continuation binds
        # nothing, so substituting into it is substituting in place).
        inst_ct = instantiate_code_type(ct, (t.sigma, eps_inst))
        check_psi_wf(st.delta, inst_ct)
        check_regfile_subtype(st.delta, st.chi, inst_ct.chi)
        inst_cont = ret_addr_type(inst_ct.q, inst_ct.chi, inst_ct.sigma)
        check_stack_wf(st.delta, inst_cont.sigma)

    # ------------------------------------------------------------------
    # Sequences and components
    # ------------------------------------------------------------------

    def check_sequence(self, st: InstrState, iseq: InstrSeq) -> None:
        """``Psi; Delta; chi; sigma; q |- I``.

        The marker restriction is re-judged after every instruction that
        changes one of its inputs (see :func:`_same_restriction`)."""
        check_q_restriction(st.delta, st.chi, st.sigma, st.q)
        k = 0
        while k < len(iseq.instrs):
            prev = st
            instr = iseq.instrs[k]
            if instr.__class__ in self._instr_rules:
                st = self.step_instruction(st, instr)
                k += 1
            else:
                st, iseq, k = self.step_in_sequence(st, iseq, k)
            if not _same_restriction(prev, st):
                check_q_restriction(st.delta, st.chi, st.sigma, st.q)
        self.check_terminator(st, iseq.term)

    def step_in_sequence(self, st: InstrState, iseq: InstrSeq,
                         k: int) -> Tuple[InstrState, InstrSeq, int]:
        """Step instruction ``k`` of ``iseq``, one that is not pure T, from
        ``st``: the state after it and the sequence and position to go on
        from.  A subclass overrides this for an instruction whose rule
        also needs the rest of the sequence, as FT's ``protect`` does."""
        return self.step_instruction(st, iseq.instrs[k]), iseq, k + 1

    def check_heap_value(self, h: HeapValue) -> HeapValType:
        """``Psi |- h : psi`` (synthesized)."""
        if isinstance(h, HTuple):
            return TupleTy(tuple(
                self.type_of_operand((), RegFileTy(), w) for w in h.words))
        if isinstance(h, HCode):
            self._check_code(h)
            return h.code_type
        raise _fail(f"unknown heap value {type(h).__name__}",
                    "tal.heap-value", h)

    def _check_code(self, h: HCode) -> None:
        """``Psi |- h`` for a code block, without building its type."""
        check_delta_wf(h.delta)
        check_chi_wf(h.delta, h.chi)
        check_stack_wf(h.delta, h.sigma)
        check_q_wf(h.delta, h.q)
        self.check_sequence(InstrState(h.delta, h.chi, h.sigma, h.q),
                            h.instrs)

    def synthesize_local_heap_typing(self, comp: Component) -> HeapTy:
        """The ``Psi'`` of the component typing rule: declared signatures of
        the local blocks, plus inferred types of local boxed data.

        All local entries are ``box`` (immutable), as the rule requires.
        """
        entries: Dict[Loc, Tuple[str, HeapValType]] = {}
        for loc, h in comp.heap:
            if isinstance(h, HCode):
                entries[loc] = (BOX, h.code_type)
        # Second pass for data tuples, which may point at the blocks (or at
        # earlier tuples).
        tuples = [(loc, h) for loc, h in comp.heap if isinstance(h, HTuple)]
        if not tuples:
            return HeapTy.of(entries)
        probe = self.with_psi(self.psi.extend(HeapTy.of(entries)))
        for loc, h in tuples:
            psi = probe.check_heap_value(h)
            entries[loc] = (BOX, psi)
            probe = self.with_psi(
                self.psi.extend(HeapTy.of(entries)))
        return HeapTy.of(entries)

    def check_component(self, st: InstrState,
                        comp: Component) -> Tuple[TalType, StackTy]:
        """``Psi; Delta; chi; sigma; q |- (I, H) : tau; sigma'``."""
        if OBS.enabled:
            OBS.metrics.inc("typecheck.t.component")
        for loc, _ in comp.heap:
            if loc in self.psi:
                raise _fail(
                    f"component heap label {loc} shadows a global location",
                    "tal.component", comp)
        local_psi = self.synthesize_local_heap_typing(comp)
        extended = self.with_psi(self.psi.extend(local_psi))
        for loc, h in comp.heap:
            declared = local_psi.get(loc)
            if declared is None:
                raise _fail(
                    f"component heap value at {loc} is not boxable",
                    "tal.component", comp)
            if isinstance(h, HCode):
                extended._check_code(h)   # its code type is in Psi
            else:
                extended.check_heap_value(h)
        result = ret_type(st.q, st.chi, st.sigma)
        extended.check_sequence(st, comp.instrs)
        return result


TalTypechecker._bind_rules()


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------

def check_component(comp: Component, *, psi: Optional[HeapTy] = None,
                    delta: Delta = (), chi: Optional[RegFileTy] = None,
                    sigma: StackTy = NIL_STACK,
                    q: Optional[RetMarker] = None) -> Tuple[TalType, StackTy]:
    """Typecheck a T component under an explicit context."""
    if q is None:
        raise FTTypeError("a component needs a return marker q",
                          judgment="tal.component")
    checker = TalTypechecker(psi)
    st = InstrState(delta, chi if chi is not None else RegFileTy(), sigma, q)
    return checker.check_component(st, comp)


def check_program(comp: Component, expected: TalType,
                  *, psi: Optional[HeapTy] = None) -> Tuple[TalType, StackTy]:
    """Typecheck a whole T program: empty registers and stack, halting
    marker ``end{expected; nil}``."""
    return check_component(
        comp, psi=psi, q=QEnd(expected, NIL_STACK))


# ---------------------------------------------------------------------------
# Runtime typing (for the type-safety property tests)
# ---------------------------------------------------------------------------

def type_of_word(psi: HeapTy, w: WordValue) -> TalType:
    """``Psi |- w : tau`` for closed word values."""
    checker = TalTypechecker(psi)
    return checker.type_of_operand((), RegFileTy(), w)


def check_memory(psi: HeapTy, heap_items, regs: Dict[str, WordValue],
                 chi: RegFileTy, stack, sigma: StackTy) -> None:
    """``Psi |- M`` against expectations ``chi`` (registers) and ``sigma``
    (stack).  ``heap_items`` iterates ``(loc, nu, heap_value)``.

    The stack check only constrains the exposed prefix of ``sigma``; an
    abstract tail stands for the (arbitrary) rest of the concrete stack.
    """
    checker = TalTypechecker(psi)
    for loc, nu, h in heap_items:
        entry = psi.get(loc)
        if entry is None:
            raise _fail(f"runtime heap location {loc} missing from Psi",
                        "tal.memory", loc)
        expected_nu, expected_psi = entry
        if nu != expected_nu:
            raise _fail(
                f"location {loc} mutability {nu} disagrees with Psi's "
                f"{expected_nu}", "tal.memory", loc)
        actual_psi = checker.check_heap_value(h)
        if not types_equal(actual_psi, expected_psi):
            raise _fail(
                f"location {loc} holds {actual_psi}, Psi says "
                f"{expected_psi}", "tal.memory", loc)
    for reg, expected_ty in chi.items():
        if reg not in regs:
            raise _fail(f"register {reg} unset but typed {expected_ty}",
                        "tal.memory", reg)
        actual = type_of_word(psi, regs[reg])
        if not types_equal(actual, expected_ty):
            raise _fail(
                f"register {reg} holds {actual}, chi says {expected_ty}",
                "tal.memory", reg)
    if len(stack) < sigma.depth:
        raise _fail(
            f"stack has {len(stack)} cells, sigma exposes {sigma.depth}",
            "tal.memory", sigma)
    for i, expected_ty in enumerate(sigma.prefix):
        actual = type_of_word(psi, stack[i])
        if not types_equal(actual, expected_ty):
            raise _fail(
                f"stack slot {i} holds {actual}, sigma says {expected_ty}",
                "tal.memory", sigma)
