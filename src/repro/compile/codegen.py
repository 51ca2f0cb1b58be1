"""Stack-machine code generation: :class:`~repro.compile.closure.ClosProgram` to T.

Each :class:`~repro.compile.closure.CodeDef` becomes a multi-block T code
frame obeying the paper's Fig 9 calling convention: arguments arrive on
the stack (last argument on top), the return continuation arrives in
``ra``, and the frame's blocks abstract ``[zeta, eps]``.  Expression
compilation maintains a compile-time *stack model* -- the exact list of
T types currently pushed above the frame's entry stack -- and a *marker
state* mirroring the typechecker's ``q``:

* a function frame starts at ``q = ra``;
* before anything that clobbers registers (a ``call``, or an ``import``
  whose embedded F code may run arbitrary T), the continuation is saved
  to a fresh stack slot, relocating the marker to ``q = 0``; it is
  restored (``sld ra, 0``) as soon as control is back;
* a ``call`` relocates a stack marker by ``i + n - m`` exactly as the
  typing rule demands, and the return continuation passed in ``ra`` is a
  per-call-site continuation block whose precondition is the post-call
  stack model -- so every generated component typechecks by
  construction.

Closures are represented by type (:mod:`repro.compile.typerep`).  An
arrow at the component's *interface* keeps Fig 9's bare code pointer,
so a closed lambda of such a type is hoisted statically and referenced
by label, and one **with captures** is materialized at run time through
an ``import`` whose F payload builds the environment tuple and applies
an environment-binding wrapper around the hoisted code (the FT
semantics' lambda wrapper then allocates a fresh code block).  Every
other arrow is a packed closure ``exists b. box <code, b>``, built and
called entirely in T:

* each definition is hoisted once into the component heap; its code
  takes the environment on top of its arguments;
* creating a closure allocates the captured values as an environment
  tuple and the ``<code, env>`` pair (two ``balloc``), then packs the
  pair; a closed lambda's pair is a static heap tuple whose environment
  is ``()``;
* an unknown call unpacks the closure, loads its code and environment,
  pushes the environment and calls the code;
* a captured variable is one ``ld`` from the environment.

A lambda applied where it stands is never a value, whatever its type:
it is called by its label, with a fresh environment if it captures.
So a compiled component crosses the boundary only at its interface.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.errors import CompileError
from repro.f.syntax import App, FTupleT, FType, Lam, Proj, TupleE, Var
from repro.ft.syntax import Boundary, Import, Protect
from repro.ft.translate import (
    EPS, ZETA, arrow_code_type, continuation_type,
)
from repro.tal.syntax import (
    Aop, Balloc, Bnz, Call, Component, DeltaBind, Halt, HCode, HTuple,
    HeapValue, InstrSeq, Jmp, KIND_EPS, KIND_ZETA, Ld, Loc, Mv, Pack, QEnd,
    QEps, QIdx, QReg, RegFileTy, RegOp, Ret, RetMarker, Salloc, Sfree, Sld,
    Sst, StackTy, TalType, TBox, TupleTy, TUnit, TVar, TyApp, UnfoldI,
    Unpack, WInt, WLoc, WUnit, seq,
)
from repro.tal.syntax import Fold as WFold
from repro.compile.closure import (
    CBin, CCall, CCaptureRef, CClos, CExpr, CFold, CFree, CIf0, CInt,
    CodeDef, CParam, CProj, CTuple, CUnfold, CUnit, ClosProgram,
)
from repro.compile.names import NameSupply
from repro.compile.typerep import TypeRep, closure_code_type, type_rep

__all__ = ["generate_function", "generate_expr"]

_OPS = {"+": "add", "-": "sub", "*": "mul"}

ZSTACK = StackTy((), ZETA)
_FN_DELTA = (DeltaBind(KIND_ZETA, ZETA), DeltaBind(KIND_EPS, EPS))
_MAIN_DELTA = (DeltaBind(KIND_ZETA, ZETA),)


def _bug(msg: str) -> CompileError:  # pragma: no cover - internal invariant
    return CompileError(f"codegen invariant violated: {msg}",
                        judgment="compile.codegen")


class _Unit:
    """One component under construction (top level, or the subcomponent
    of a single materialized closure)."""

    def __init__(self, program: ClosProgram, supply: NameSupply,
                 rep: TypeRep):
        self.program = program
        self.supply = supply
        self.rep = rep
        self.blocks: List[Tuple[Loc, HeapValue]] = []
        self._code: Dict[str, Loc] = {}
        self._pairs: Dict[str, Loc] = {}

    def hoist(self, code_id: str, with_env: bool) -> Loc:
        """Hoist a definition's code into this component (once).  Each
        definition has exactly one use, which decides whether its code
        takes an environment."""
        loc = self._code.get(code_id)
        if loc is None:
            loc = Loc(code_id)
            self._code[code_id] = loc
            _Frame(self, defn=self.program.get(code_id),
                   with_env=with_env).run()
        return loc

    def closed_pair(self, code_id: str) -> Loc:
        """The static ``<code, ()>`` pair of a closed packed lambda."""
        loc = self._pairs.get(code_id)
        if loc is None:
            code = self.hoist(code_id, with_env=True)
            loc = Loc(self.supply.fresh(f"{code_id}_pair"))
            self._pairs[code_id] = loc
            self.blocks.append((loc, HTuple((WLoc(code), WUnit()))))
        return loc


class _Frame:
    """Emits the blocks of one frame (a :class:`CodeDef`, or the main
    expression of a non-lambda compilation).

    A frame ``with_env`` takes its environment on top of its arguments
    (the code of a packed closure, or of a capturing lambda applied where
    it stands).  ``env_name`` names the F-side environment of a
    materialized (interface) closure instead."""

    def __init__(self, unit: _Unit, *, defn: Optional[CodeDef] = None,
                 main: Optional[CExpr] = None, with_env: bool = False,
                 env_name: Optional[str] = None):
        self.unit = unit
        self.program = unit.program
        self.tr = unit.rep.translate
        self.defn = defn
        self.env_name = env_name
        self.env_t: Optional[TalType] = None
        if defn is not None:
            self.kind = "fn"
            self.label = defn.code_id
            self.arity = len(defn.params)
            self.delta = _FN_DELTA
            self.result_t = self.tr(defn.arrow.result)
            self.cont = continuation_type(self.result_t, ZSTACK)
            # Entry stack: last argument on top (arrow_code_type), under
            # the environment if the code takes one.
            self.model: List[TalType] = [
                self.tr(t) for _, t in reversed(defn.params)]
            if with_env:
                self.env_t = _env_type(self.tr, defn)
                self.model.insert(0, self.env_t)
            self.marker: RetMarker = QReg("ra")
        else:
            assert main is not None
            self.kind = "main"
            self.label = "main"
            self.arity = 0
            self.delta = _MAIN_DELTA
            self.result_t = self.tr(main.ty)
            self.cont = None
            self.model = []
            self.marker = QEnd(self.result_t, ZSTACK)
        self.main = main
        self.entry_body: Optional[InstrSeq] = None
        self._instrs: List = []
        self._open_label: Optional[Loc] = None
        self._open_chi = RegFileTy()
        self._open_sigma = ZSTACK
        self._open_q: RetMarker = self.marker

    # -- block plumbing --------------------------------------------------

    def emit(self, *instrs) -> None:
        self._instrs.extend(instrs)

    def sigma(self) -> StackTy:
        return StackTy(tuple(self.model), ZETA)

    def open(self, label: Optional[Loc], chi: RegFileTy) -> None:
        self._open_label = label
        self._open_chi = chi
        self._open_sigma = self.sigma()
        self._open_q = self.marker
        self._instrs = []

    def close(self, term) -> None:
        iseq = InstrSeq(tuple(self._instrs), term)
        if self._open_label is None:
            self.entry_body = iseq
        else:
            self.unit.blocks.append(
                (self._open_label,
                 HCode(self.delta, self._open_chi, self._open_sigma,
                       self._open_q, iseq)))
        self._instrs = []

    def fresh_label(self, stem: str) -> Loc:
        return Loc(self.unit.supply.fresh(f"{self.label}_{stem}"))

    def block_ref(self, label: Loc) -> TyApp:
        if self.kind == "fn":
            return TyApp(WLoc(label), (ZSTACK, QEps(EPS)))
        return TyApp(WLoc(label), (ZSTACK,))

    def branch_chi(self) -> RegFileTy:
        """chi promised to a branch/join block: values live on the stack,
        plus ``ra`` when the marker currently sits there."""
        if isinstance(self.marker, QReg):
            return RegFileTy.of(ra=self.cont)
        return RegFileTy()

    # -- stack-model / marker bookkeeping --------------------------------

    def model_push(self, ty: TalType) -> None:
        self.model.insert(0, ty)
        if isinstance(self.marker, QIdx):
            self.marker = QIdx(self.marker.index + 1)

    def model_pop(self, n: int) -> None:
        del self.model[:n]
        if isinstance(self.marker, QIdx):
            if self.marker.index < n:
                raise _bug("popped the saved return continuation")
            self.marker = QIdx(self.marker.index - n)

    def push_result(self, ty: TalType) -> None:
        """r1 holds the value; push it as a new temporary."""
        self.emit(Salloc(1), Sst(0, "r1"))
        self.model_push(ty)

    def save_marker(self) -> bool:
        """Spill ``ra`` to a fresh stack slot if the marker lives there."""
        if isinstance(self.marker, QReg):
            self.emit(Salloc(1), Sst(0, "ra"))
            self.model.insert(0, self.cont)
            self.marker = QIdx(0)
            return True
        return False

    def restore_marker(self, extra_free: int = 0) -> None:
        """Undo :meth:`save_marker`: reload ``ra`` from slot 0 and free the
        spill slot (plus ``extra_free`` slots directly below it)."""
        self.emit(Sld("ra", 0))
        self.marker = QReg("ra")
        self.emit(Sfree(1 + extra_free))
        del self.model[:1 + extra_free]

    def env_slot(self) -> int:
        """Stack slot of the frame's environment (just above the
        arguments)."""
        return len(self.model) - 1 - self.arity

    # -- capture reads (F expressions evaluated by an import) ------------

    def read_expr(self, ref: CExpr):
        """An F expression that reads ``ref`` out of the *running* frame
        -- legal inside an ``import`` at the current stack model."""
        if isinstance(ref, CParam):
            slot = len(self.model) - 1 - ref.index
            return Boundary(ref.ty, Component(seq(
                Sld("r1", slot),
                Halt(self.tr(ref.ty), self.sigma(), "r1"))))
        if isinstance(ref, CCaptureRef):
            if self.env_t is not None:
                return Boundary(ref.ty, Component(seq(
                    Sld("r1", self.env_slot()),
                    Ld("r1", "r1", ref.index),
                    Halt(self.tr(ref.ty), self.sigma(), "r1"))))
            if self.env_name is None:
                raise _bug("capture reference outside a captured frame")
            return Proj(ref.index, Var(self.env_name))
        if isinstance(ref, CFree):
            return Var(ref.name)
        raise _bug(f"unreadable capture initializer {ref}")

    def emit_import(self, fty: FType, make_expr) -> None:
        """Run F code mid-frame: spill the marker if needed (``import``
        demands a stack or end marker), import, restore, push.

        ``make_expr`` is called *after* the potential spill: stack-read
        boundaries inside the payload index slots from the top, so the
        spill slot shifts every read by one."""
        saved = self.save_marker()
        self.emit(Import("r1", ZSTACK, fty, make_expr()))
        if saved:
            self.restore_marker()
        self.push_result(self.tr(fty))

    # -- closures --------------------------------------------------------

    def materialize(self, c: CClos, d: CodeDef) -> None:
        """Runtime closure creation for an interface lambda with captures.

        Emits an ``import`` whose F payload (a) reads each captured
        variable out of the current frame into an environment tuple and
        (b) applies an environment-binding wrapper around the hoisted
        code, compiled into its own subcomponent.  The FT semantics
        convert the resulting F lambda to a fresh T code block."""
        subunit = _Unit(self.program, self.unit.supply, self.unit.rep)
        env_name = self.unit.supply.fresh("__env")
        _Frame(subunit, defn=d, env_name=env_name).run()
        subcomp = Component(
            InstrSeq((Protect((), ZETA), Mv("r1", WLoc(Loc(d.code_id)))),
                     Halt(self.tr(d.arrow), ZSTACK, "r1")),
            tuple(subunit.blocks))
        inner = Lam(d.params,
                    App(Boundary(d.arrow, subcomp),
                        tuple(Var(x) for x, _ in d.params)))
        env_ty = FTupleT(tuple(t for _, t in d.captures))
        self.emit_import(d.arrow, lambda: App(
            Lam(((env_name, env_ty),), inner),
            (TupleE(tuple(self.read_expr(r) for r in c.captures)),)))

    def push_env(self, c: CClos) -> TalType:
        """Push the environment ``c``'s code takes: ``()`` for a closed
        lambda, else a fresh tuple of the captured values."""
        if not c.captures:
            self.emit(Salloc(1))
            self.model_push(TUnit())
            return TUnit()
        # Right-to-left, so that capture 0 ends up on top for balloc.
        for ref in reversed(c.captures):
            self.compile(ref)
        env_t = TBox(TupleTy(tuple(self.model[:len(c.captures)])))
        self.emit(Balloc("r1", len(c.captures)))
        self.model_pop(len(c.captures))
        self.push_result(env_t)
        return env_t

    def pack(self, c: CClos) -> None:
        """Leave the packed closure ``c`` on top of the stack."""
        arrow_t = self.tr(c.ty)
        if not c.captures:
            pair = self.unit.closed_pair(c.code_id)
            self.emit(Mv("r1", Pack(TUnit(), WLoc(pair), arrow_t)))
            self.push_result(arrow_t)
            return
        code = self.unit.hoist(c.code_id, with_env=True)
        env_t = self.push_env(c)
        self.emit(Mv("r1", WLoc(code)))
        self.push_result(TBox(closure_code_type(
            *self.unit.rep.arrow_parts(c.ty), env_t)))
        self.emit(Balloc("r1", 2))
        self.model_pop(2)
        self.emit(Mv("r1", Pack(env_t, RegOp("r1"), arrow_t)))
        self.push_result(arrow_t)

    # -- calls -----------------------------------------------------------

    def emit_call(self, c: CCall) -> None:
        m = len(c.args)
        res_t = self.tr(c.ty)
        fn = c.fn

        # A lambda applied where it stands is never a value, so its type's
        # representation does not matter: it is called by label, and one
        # with captures gets a fresh environment on top of its arguments.
        direct: Optional[Loc] = None
        if isinstance(fn, CClos):
            with_env = bool(fn.captures)
            direct = self.unit.hoist(fn.code_id, with_env)
        else:
            with_env = self.unit.rep.packed(fn.ty)
            self.compile(fn)             # closure value as a temporary
        saved = self.save_marker()
        for a in c.args:
            self.compile(a)

        if direct is not None:
            target: Union[RegOp, WLoc] = WLoc(direct)
            if with_env:
                self.push_env(fn)
        else:
            ptr_slot = m + (1 if saved else 0)
            self.emit(Sld("r7", ptr_slot))
            if with_env:
                beta = self.unit.supply.fresh("b")
                self.emit(Unpack(beta, "r7", RegOp("r7")),
                          Ld("r6", "r7", 1), Salloc(1), Sst(0, "r6"),
                          Ld("r7", "r7", 0))
                self.model_push(TVar(beta))
            target = RegOp("r7")
        taken = m + (1 if with_env else 0)

        # Marker relocation (the call rule's i + n - m; Fig 9 arrows have
        # n = 0 continuation slots) and the protected tail.
        if isinstance(self.marker, QEnd):
            q2: RetMarker = self.marker
        elif isinstance(self.marker, QIdx):
            q2 = QIdx(self.marker.index - taken)
        else:  # pragma: no cover - save_marker precludes
            raise _bug("call under a register marker")
        t_sigma = StackTy(tuple(self.model[taken:]), ZETA)

        lcont = self.fresh_label("ret")
        self.emit(Mv("ra", self.block_ref(lcont)))
        self.close(Call(target, t_sigma, q2))

        # Continuation block: result in r1, arguments consumed.
        del self.model[:taken]
        self.marker = q2
        self.open(lcont, RegFileTy.of(r1=res_t))
        if saved:
            self.restore_marker(extra_free=0 if direct is not None else 1)
        elif direct is None:
            self.emit(Sfree(1))
            self.model_pop(1)            # the closure temporary
        self.push_result(res_t)

    # -- expressions -----------------------------------------------------

    def compile(self, c: CExpr) -> None:
        """Emit code leaving ``c``'s value as one new temporary on top."""
        if isinstance(c, CInt):
            self.emit(Mv("r1", WInt(c.value)))
            self.push_result(self.tr(c.ty))
            return
        if isinstance(c, CUnit):
            self.emit(Mv("r1", WUnit()))
            self.push_result(self.tr(c.ty))
            return
        if isinstance(c, CParam):
            slot = len(self.model) - 1 - c.index
            self.emit(Sld("r1", slot))
            self.push_result(self.tr(c.ty))
            return
        if isinstance(c, CCaptureRef) and self.env_t is not None:
            self.emit(Sld("r1", self.env_slot()), Ld("r1", "r1", c.index))
            self.push_result(self.tr(c.ty))
            return
        if isinstance(c, (CCaptureRef, CFree)):
            self.emit_import(c.ty, lambda: self.read_expr(c))
            return
        if isinstance(c, CBin):
            self.compile(c.left)
            self.compile(c.right)
            self.emit(
                Sld("r2", 0),            # right operand
                Sld("r1", 1),            # left operand
                Sfree(2),
                Aop(_OPS[c.op], "r1", "r1", RegOp("r2")),
            )
            self.model_pop(2)
            self.push_result(self.tr(c.ty))
            return
        if isinstance(c, CIf0):
            self.compile(c.cond)
            self.emit(Sld("r1", 0), Sfree(1))
            self.model_pop(1)
            else_label = self.fresh_label("else")
            join_label = self.fresh_label("join")
            at_branch = (list(self.model), self.marker)
            self.emit(Bnz("r1", self.block_ref(else_label)))
            self.compile(c.then)
            self.close(Jmp(self.block_ref(join_label)))
            self.model, self.marker = list(at_branch[0]), at_branch[1]
            self.open(else_label, self.branch_chi())
            self.compile(c.els)
            self.close(Jmp(self.block_ref(join_label)))
            self.open(join_label, self.branch_chi())
            return
        if isinstance(c, CTuple):
            # Compiled right-to-left so that field 0 ends up on top --
            # balloc pops top-first into the tuple's fields.
            for item in reversed(c.items):
                self.compile(item)
            self.emit(Balloc("r1", len(c.items)))
            self.model_pop(len(c.items))
            self.push_result(self.tr(c.ty))
            return
        if isinstance(c, CProj):
            self.compile(c.body)
            self.emit(Sld("r1", 0), Ld("r1", "r1", c.index), Sst(0, "r1"))
            self.model[0] = self.tr(c.ty)
            return
        if isinstance(c, CFold):
            self.compile(c.body)
            self.emit(Sld("r1", 0),
                      Mv("r1", WFold(self.tr(c.ty), RegOp("r1"))),
                      Sst(0, "r1"))
            self.model[0] = self.tr(c.ty)
            return
        if isinstance(c, CUnfold):
            self.compile(c.body)
            self.emit(Sld("r1", 0), UnfoldI("r1", RegOp("r1")),
                      Sst(0, "r1"))
            self.model[0] = self.tr(c.ty)
            return
        if isinstance(c, CClos):
            if self.unit.rep.packed(c.ty):
                self.pack(c)
            elif not c.captures:
                label = self.unit.hoist(c.code_id, with_env=False)
                self.emit(Mv("r1", WLoc(label)))
                self.push_result(self.tr(c.ty))
            else:
                self.materialize(c, self.program.get(c.code_id))
            return
        if isinstance(c, CCall):
            self.emit_call(c)
            return
        raise _bug(f"unhandled IR node {type(c).__name__}")

    # -- frame entry points ----------------------------------------------

    def run(self) -> None:
        if self.kind == "fn":
            assert self.defn is not None
            self.open(Loc(self.defn.code_id), RegFileTy.of(ra=self.cont))
            self.compile(self.defn.body)
            if not isinstance(self.marker, QReg):
                raise _bug("marker not restored to ra at epilogue")
            frame = self.arity + (self.env_t is not None)
            if len(self.model) != 1 + frame:
                raise _bug("unbalanced stack model at epilogue")
            self.emit(Sld("r1", 0), Sfree(1 + frame))
            self.close(Ret("ra", "r1"))
        else:
            assert self.main is not None
            self.open(None, RegFileTy())
            self.compile(self.main)
            if len(self.model) != 1:
                raise _bug("unbalanced stack model at halt")
            self.emit(Sld("r1", 0), Sfree(1))
            self.close(Halt(self.result_t, ZSTACK, "r1"))
            if self.entry_body is None:
                raise _bug("main frame produced no entry sequence")


def _env_type(tr, defn: CodeDef) -> TalType:
    """The environment a definition's code takes: ``()`` when it
    captures nothing, else the tuple of its captures."""
    if not defn.captures:
        return TUnit()
    return TBox(TupleTy(tuple(tr(t) for _, t in defn.captures)))


def generate_function(program: ClosProgram,
                      supply: Optional[NameSupply] = None) -> Component:
    """Generate the component for a lambda compilation: the entry sequence
    protects the whole ambient stack and returns the code pointer of the
    hoisted entry definition (the JIT's wrapper shape).  The entry is
    the component's interface, so its code keeps the Fig 9 convention."""
    assert program.main_code is not None
    defn = program.get(program.main_code)
    if defn.captures:  # pragma: no cover - top frame has no enclosing frame
        raise _bug("top-level definition cannot have captures")
    unit = _Unit(program, supply or NameSupply(),
                 type_rep(program.interface))
    entry = unit.hoist(defn.code_id, with_env=False)
    return Component(
        InstrSeq((Protect((), ZETA), Mv("r1", WLoc(entry))),
                 Halt(TBox(arrow_code_type(
                     *unit.rep.arrow_parts(defn.arrow))), ZSTACK, "r1")),
        tuple(unit.blocks))


def generate_expr(program: ClosProgram,
                  supply: Optional[NameSupply] = None) -> Component:
    """Generate the component for a non-lambda term: the computation runs
    in the component's entry sequence (splitting into blocks at joins and
    call returns) and halts with the translated result."""
    assert program.main is not None
    unit = _Unit(program, supply or NameSupply(),
                 type_rep(program.interface))
    frame = _Frame(unit, main=program.main)
    frame.run()
    assert frame.entry_body is not None
    return Component(
        InstrSeq((Protect((), ZETA),) + frame.entry_body.instrs,
                 frame.entry_body.term),
        tuple(unit.blocks))
