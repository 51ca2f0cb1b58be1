"""Type erasure for T: the machine never consults type annotations.

T's operational semantics is *erasure-compatible*: types decorate
instructions (``halt τ, σ``, ``pack <τ, w> as τ'``, instantiation lists)
but never influence which step is taken or what value is computed.  The
paper relies on this implicitly -- "we merge local heap fragments ... the
full semantics are standard" -- and it is what makes the type system a
static discipline rather than a runtime cost.

:func:`erase_types` makes the property *testable*: it rewrites every value
type to ``unit``, every annotation stack to an empty one, and every
``end{τ; σ}`` to ``end{unit; nil}``, while preserving everything the
machine does consult -- register names, slot indices, labels, binder
*kinds and names* (so instantiation arity still lines up), and marker
positions.  The erasure-invariance tests run a component and its erasure
and require the same halt value; running them over the random well-typed
program battery gives a machine-level proof-by-testing that evaluation is
typing-independent.

(Scope: pure T.  FT boundaries genuinely *are* type-directed -- the value
translations dispatch on the boundary type -- so erasure stops at
``import``; that contrast is itself the interesting fact.)
"""

from __future__ import annotations

from repro.tal.syntax import (
    Aop, Balloc, Bnz, Call, Component, Fold, Halt, HCode, HeapValue,
    HTuple, InstrSeq, Instruction, Jmp, Ld, Mv, NIL_STACK, Operand, Pack,
    QEnd, Ralloc, RegFileTy, RegOp, Ret, RetMarker, Salloc, Sfree, Sld,
    Sst, St, StackTy, TalType, Terminator, TExists, TUnit, TyApp, UnfoldI,
    Unpack, WInt, WLoc, WUnit,
)

__all__ = ["erase_types", "erase_word"]

_UNIT = TUnit()
_UNIT_EXISTS = TExists("a", TUnit())


def _erase_stack(sigma: StackTy) -> StackTy:
    # keep the tail variable (it may be an instantiation target) but drop
    # the informative prefix entirely
    return StackTy((), sigma.tail)


def _erase_q(q: RetMarker) -> RetMarker:
    if isinstance(q, QEnd):
        return QEnd(_UNIT, NIL_STACK)
    return q  # registers, indices, eps names, out: all machine-relevant


def _erase_omega(omega):
    if isinstance(omega, TalType):
        return _UNIT
    if isinstance(omega, StackTy):
        return _erase_stack(omega)
    return _erase_q(omega)


def erase_word(u: Operand) -> Operand:
    """Erase the annotations inside a small value."""
    if isinstance(u, (WUnit, WInt, WLoc, RegOp)):
        return u
    if isinstance(u, Pack):
        return Pack(_UNIT, erase_word(u.body), _UNIT_EXISTS)
    if isinstance(u, Fold):
        from repro.tal.syntax import TRec

        return Fold(TRec("a", _UNIT), erase_word(u.body))
    if isinstance(u, TyApp):
        return TyApp(erase_word(u.body),
                     tuple(_erase_omega(o) for o in u.insts))
    raise TypeError(f"erase_word: unsupported {type(u).__name__}")


def _erase_instr(i: Instruction) -> Instruction:
    if isinstance(i, Aop):
        return Aop(i.op, i.rd, i.rs, erase_word(i.u))
    if isinstance(i, Bnz):
        return Bnz(i.r, erase_word(i.u))
    if isinstance(i, Mv):
        return Mv(i.rd, erase_word(i.u))
    if isinstance(i, Unpack):
        return Unpack(i.alpha, i.rd, erase_word(i.u))
    if isinstance(i, UnfoldI):
        return UnfoldI(i.rd, erase_word(i.u))
    if isinstance(i, (Ld, St, Ralloc, Balloc, Salloc, Sfree, Sld, Sst)):
        return i
    raise TypeError(
        f"erase_types is defined for pure T; found {type(i).__name__}")


def _erase_term(t: Terminator) -> Terminator:
    if isinstance(t, Jmp):
        return Jmp(erase_word(t.u))
    if isinstance(t, Call):
        return Call(erase_word(t.u), _erase_stack(t.sigma), _erase_q(t.q))
    if isinstance(t, Ret):
        return t
    if isinstance(t, Halt):
        return Halt(_UNIT, NIL_STACK, t.r)
    raise TypeError(f"erase_types: unknown terminator {type(t).__name__}")


def _erase_seq(iseq: InstrSeq) -> InstrSeq:
    return InstrSeq(tuple(_erase_instr(i) for i in iseq.instrs),
                    _erase_term(iseq.term))


def _erase_heap_value(h: HeapValue) -> HeapValue:
    if isinstance(h, HTuple):
        return HTuple(tuple(erase_word(w) for w in h.words))
    if isinstance(h, HCode):
        chi = RegFileTy(tuple((r, _UNIT) for r, _ in h.chi.items()))
        return HCode(h.delta, chi, _erase_stack(h.sigma), _erase_q(h.q),
                     _erase_seq(h.instrs))
    raise TypeError(f"erase_types: unknown heap value {type(h).__name__}")


def erase_types(comp: Component) -> Component:
    """Erase every type annotation in a pure T component.

    The result is (intentionally) almost never well-typed; it exists to
    run, and running it must produce the same observable result as the
    original."""
    return Component(
        _erase_seq(comp.instrs),
        tuple((loc, _erase_heap_value(h)) for loc, h in comp.heap))
