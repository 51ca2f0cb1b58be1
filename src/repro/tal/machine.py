"""Small-step operational semantics of T: ``<M | e> --> <M' | e'>`` (sec 3).

The machine executes instruction sequences against a mutable
:class:`~repro.tal.heap.Memory`.  Loading a component ``(I, H)`` merges its
local heap fragment into the global heap under *fresh* locations (renaming
every reference inside the component), exactly as the paper's operational
semantics prescribes -- so structurally identical components loaded twice
into one memory never interfere.  Renaming (:func:`rename_locs`) is a
fold over the FT grammar of :mod:`repro.walk`, so it reaches the labels
inside ``import`` payloads and their boundaries too.  Freshness is only
needed within a memory, so the renaming is done once and reused: a
:class:`LoadTemplate` (fresh labels, renamed cells, renamed entry
sequence) is kept on the component, and a later load into a memory that
binds none of its labels binds the very same cells.  Instantiation memos
keyed on block identity, and the fast tier's block table, therefore hit
across runs.

Control transfers emit :class:`TraceEvent` records carrying the register
and stack state *at jump time*; :mod:`repro.analysis.trace` reconstructs the
paper's control-flow diagrams (Figs 4 and 12) from these events.

Type instantiations are erased-but-carried: word values of the form
``loc[omega...]`` keep their instantiations so that jumping through them can
substitute concrete types into the target block's instructions (whose
``call``/``halt``/``import`` annotations mention the block's type
variables).  A well-typed program never jumps to a block with leftover
binders; the machine checks this and raises :class:`MachineError` otherwise
(such states are "stuck" in the paper's terminology).

FT's extra instructions are handled by the subclass hook
:meth:`TalMachine.exec_extended_instruction`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro import walk
from repro.errors import MachineError, SnapshotError
from repro.obs.events import MachineEvent, OBS
from repro.obs.profile import PROFILER
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import MachineSnapshot
from repro.tal.heap import Memory, RegSnapshot, StackSnapshot
from repro.tal.subst import instantiate_code_block, Subst, subst_term
from repro.tal.syntax import (
    Aop, AOPS, Balloc, Bnz, BOX, Call, Component, Fold, Halt, HTuple,
    InstrSeq, Instruction, Jmp, KIND_ALPHA, Ld, Loc, Mv, Operand, Pack,
    Ralloc, REF, RegOp, Ret, Salloc, Sfree, Sld, Sst, St, StackTy, TalType,
    Terminator, TyApp, UnfoldI, Unpack, WInt, WLoc, WordValue, WUnit,
    fresh_loc,
)

__all__ = [
    "TraceEvent", "HaltedState", "ImportRequest", "TalMachine",
    "LoadTemplate", "rename_locs", "run_component", "TAL_ENGINES",
    "DEFAULT_TAL_ENGINE", "resolve_tal_engine",
]

#: The selectable T execution engines: the reference stepper and the
#: direct-threaded fast tier (:mod:`repro.tal.fast`).  T's types are
#: erased before it runs, so production runs the type-erased ``fast``
#: tier; ``ref``, the paper's typed semantics, stays the oracle that the
#: differential suites and validation's observations run on.
TAL_ENGINES = ("ref", "fast")
DEFAULT_TAL_ENGINE = "fast"


def resolve_tal_engine(name: Optional[str]) -> str:
    """Validate a ``--tal-engine`` choice; ``None`` falls back to the
    ``FUNTAL_TAL_ENGINE`` environment variable, then to
    :data:`DEFAULT_TAL_ENGINE`."""
    if name is None:
        name = os.environ.get("FUNTAL_TAL_ENGINE") or DEFAULT_TAL_ENGINE
    if name not in TAL_ENGINES:
        raise ValueError(
            f"unknown tal engine {name!r} (expected one of "
            f"{', '.join(TAL_ENGINES)})")
    return name


# ---------------------------------------------------------------------------
# Location renaming (component-heap merging)
# ---------------------------------------------------------------------------

def rename_locs(x, mapping: Dict[Loc, Loc]):
    """Rename heap labels throughout any FT term: label values, lump
    handles, and the cells a component binds (with their references),
    through ``import`` payloads and boundaries alike.

    A fold over :mod:`repro.walk`'s grammar, which says where labels
    occur.  Renaming preserves sharing: a term none of whose labels is in
    ``mapping`` comes back as the very same object (so
    ``rename_locs(x, {}) is x``), and a rebuilt term reuses every
    untouched sub-term.
    """
    if not mapping:
        return x

    label = lambda loc: mapping.get(loc, loc)  # noqa: E731

    def pre(node):
        new = walk.map_labels(node, label)
        return None if new is node else walk.Descend(new)

    return walk.fold(x, pre, cross=walk.ALL,
                     unknown=walk.unsupported("rename_locs"),
                     on=walk.LABELLED)


# ---------------------------------------------------------------------------
# Relocated component images
# ---------------------------------------------------------------------------

class LoadTemplate:
    """One relocation of a component ``(I, H)``: the fresh label of each
    heap cell (``mapping``), the renamed cells and the renamed entry
    sequence.  ``fast`` is the fast tier's block for the entry sequence,
    built on the first fast load (:func:`repro.tal.fast.install_component`);
    the fast tier keeps the blocks of the cells on the cells themselves.

    A component without a heap has nothing to relocate: its template
    binds no cells and its entry sequence is the component's own, so
    nothing is renamed.

    Every cell is an immutable ``box``, so any number of memories may
    bind the same template; only two loads into one memory must not.
    """

    __slots__ = ("mapping", "cells", "instrs", "fast")

    def __init__(self, comp: Component):
        self.mapping = {loc: fresh_loc(loc.name) for loc, _ in comp.heap}
        moved = rename_locs(comp, self.mapping) if self.mapping else comp
        self.cells, self.instrs, self.fast = moved.heap, moved.instrs, None

    def fits(self, heap: Dict[Loc, object]) -> bool:
        """Whether a memory with this heap binds none of the labels."""
        for loc, _ in self.cells:
            if loc in heap:
                return False
        return True


def load_template(comp: Component, heap: Dict[Loc, object]) -> LoadTemplate:
    """The template cached on ``comp`` if ``heap`` binds none of its
    labels, else a new one.

    A component caches one template, its first.  A second load into a
    memory that already binds it (a crossing that re-enters the same
    component within one run) renames fresh and keeps nothing, as Fig 8
    reads.  None of the perfbench workloads, the paper examples or
    random compiled programs ever loads one component into one memory
    twice, so a second slot would never be used (``docs/performance.md``).

    A component without a heap (a straight-line component, an FT
    boundary wrapper) binds no label, so its one template, kept in the
    ``_identity`` slot, serves every load.
    """
    if not comp.heap:
        tpl = getattr(comp, "_identity", None)
        if tpl is None:
            tpl = LoadTemplate(comp)
            object.__setattr__(comp, "_identity", tpl)
        return tpl
    tpl = getattr(comp, "_template", None)
    if tpl is not None and tpl.fits(heap):
        if OBS.enabled:
            OBS.metrics.inc("t.machine.load.template_hit")
        return tpl
    new = LoadTemplate(comp)
    if tpl is None:
        object.__setattr__(comp, "_template", new)
    if OBS.enabled:
        OBS.metrics.inc("t.machine.load.template_miss")
    return new


# ---------------------------------------------------------------------------
# Traces and halt states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceEvent:
    """One control-transfer (or component-entry) event."""

    step: int
    kind: str                  # enter | jmp | call | ret | bnz | halt | boundary
    target: Optional[str]      # pretty label of the destination block
    regs: RegSnapshot
    stack: StackSnapshot
    detail: str = ""

    def pretty_label(self) -> str:
        return self.target.split("%")[0] if self.target else ""

    def __str__(self) -> str:
        regs = ", ".join(f"{r} -> {w}" for r, w in self.regs)
        stack = " :: ".join(str(w) for w in self.stack) or "nil"
        where = f" -> {self.pretty_label()}" if self.target else ""
        info = f" ({self.detail})" if self.detail else ""
        return f"[{self.step}] {self.kind}{where}{info} | {regs} | {stack}"


@dataclass(frozen=True)
class HaltedState:
    """Terminal machine state: ``halt tau, sigma {r}`` was executed."""

    word: WordValue
    ty: TalType
    sigma: StackTy
    reg: str


class ImportRequest(NamedTuple):
    """What a T engine hands back on reaching an FT ``import``: the FT
    driver evaluates ``instr.expr`` in F, moves the translated word into
    ``instr.rd`` and continues T at ``cont`` (an :class:`InstrSeq`, or a
    live fast-tier resume point)."""

    instr: Instruction
    cont: object


MachineState = Union[InstrSeq, HaltedState]


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------

class TalMachine:
    """Executes T instruction sequences against a shared memory.

    Every machine runs under a :class:`~repro.resilience.budget.Budget`
    (fuel + heap cells + stack depth); the budget is shared with the
    machine's :class:`Memory` so allocation and stack growth are charged
    in one place.  A machine whose budget trips mid-run retains its
    state: :meth:`snapshot` captures it as a picklable, content-hashed
    checkpoint and :meth:`restore`/:meth:`resume` continue it -- in the
    same process or another one.
    """

    kind = "t"

    def __init__(self, memory: Optional[Memory] = None,
                 trace: bool = False, max_events: Optional[int] = None,
                 budget: Optional[Budget] = None,
                 tal_engine: Optional[str] = None):
        self.budget = budget if budget is not None else Budget()
        self.memory = memory if memory is not None else Memory()
        if self.memory.budget is None:
            self.memory.budget = self.budget
        self.trace_enabled = trace
        self.trace: List[TraceEvent] = []
        self.max_events = max_events
        self._truncated = False
        self.steps = 0
        self._state: Optional[MachineState] = None
        self.tal_engine = resolve_tal_engine(tal_engine)
        # Fast-tier installation state: which blocks this machine's
        # memory binds.  The blocks themselves (with their memos and JIT
        # state) belong to the code they were built from -- the cells
        # and entry of a component's load template -- and are shared by
        # every machine that loads the template; the maps are never
        # snapshotted, and a restored machine lowers the blocks of its
        # revived heap on demand.
        self._fast_blocks: Dict[Loc, object] = {}
        self._fast_entries: Dict[int, tuple] = {}
        self._fast_residual: Optional[MachineState] = None

    # -- tracing ------------------------------------------------------

    def emit(self, kind: str, target: Optional[str] = None,
             detail: Union[str, Callable[[], str]] = "") -> None:
        """Record a control-transfer event.  ``detail`` may be a
        zero-argument callable; it is formatted only when the event is
        actually retained or published, so the disabled path formats
        nothing."""
        publish = OBS.enabled and OBS.bus.active
        if not (self.trace_enabled and not self._truncated) and not publish:
            return
        if callable(detail):
            detail = detail()
        ev = TraceEvent(
            self.steps, kind, target, self.memory.snapshot_regs(),
            self.memory.snapshot_stack(), detail)
        if self.trace_enabled and not self._truncated:
            if self.max_events is None or len(self.trace) < self.max_events:
                self.trace.append(ev)
            else:
                # cap hit: record one sentinel, then stop retaining events
                # so fuel-heavy runs can't exhaust memory while tracing.
                self._truncated = True
                self.trace.append(TraceEvent(
                    self.steps, "truncated", None, (), (),
                    f"trace capped at {self.max_events} events"))
                if OBS.enabled:
                    OBS.metrics.inc("trace.truncated")
        if publish:
            OBS.bus.publish(MachineEvent(
                ev.step, ev.kind, ev.target,
                tuple((r, str(w)) for r, w in ev.regs),
                tuple(str(w) for w in ev.stack), ev.detail,
                time.perf_counter_ns()))

    # -- component loading --------------------------------------------

    def load_component(self, comp: Component) -> InstrSeq:
        """Merge the component's heap fragment into the global heap under
        fresh labels and return its (renamed) entry sequence.

        The renaming comes from the component's cached
        :class:`LoadTemplate` when this memory does not bind its labels
        yet (:func:`load_template`), so a component is relocated once,
        not once per run.  Every cell still goes through
        :meth:`Memory.bind` (heap budget, chaos probe, already-bound
        check).  A heap-less component (a straight-line component, the
        FT boundary wrappers) renames nothing: its own entry sequence
        runs.  On the fast engine every load installs the template's
        entry block, built at the component's first fast load."""
        tpl = load_template(comp, self.memory.heap)
        bind = self.memory.bind
        for loc, h in tpl.cells:
            bind(loc, h, BOX)
        if self.tal_engine == "fast":
            from repro.tal import fast
            fast.install_component(self, tpl)
        if OBS.enabled:
            OBS.metrics.inc("t.machine.components_loaded")
        self.emit("enter", None,
                  detail=lambda: f"merged {len(comp.heap)} block(s)")
        return tpl.instrs

    # -- operand resolution -------------------------------------------

    def resolve(self, u: Operand) -> WordValue:
        """Evaluate a small value to a word value (reading registers)."""
        if isinstance(u, (WUnit, WInt, WLoc)):
            return u
        if isinstance(u, RegOp):
            return self.memory.get_reg(u.reg)
        if isinstance(u, Pack):
            return Pack(u.hidden, self.resolve(u.body), u.as_ty)
        if isinstance(u, Fold):
            return Fold(u.as_ty, self.resolve(u.body))
        if isinstance(u, TyApp):
            body = self.resolve(u.body)
            if isinstance(body, TyApp):
                return TyApp(body.body, body.insts + u.insts)
            return TyApp(body, u.insts)
        raise MachineError(f"cannot resolve operand {u}")

    def resolve_code_target(self, u: Operand) -> Tuple[Loc, Tuple]:
        """Resolve a jump operand to a location plus its accumulated
        type instantiations (innermost first)."""
        w = self.resolve(u)
        omegas: Tuple = ()
        while isinstance(w, TyApp):
            omegas = tuple(w.insts) + omegas
            w = w.body
        if not isinstance(w, WLoc):
            raise MachineError(f"jump to non-location value {w}")
        return w.loc, omegas

    def resolve_int(self, u: Operand) -> int:
        w = self.resolve(u)
        if not isinstance(w, WInt):
            raise MachineError(f"expected an integer, got {w}")
        return w.value

    # -- jumping -------------------------------------------------------

    def enter_block(self, loc: Loc, omegas: Tuple,
                    extra: Tuple = ()) -> InstrSeq:
        block = self.memory.code_at(loc)
        all_omegas = omegas + extra
        if len(all_omegas) > len(block.delta):
            raise MachineError(
                f"block {loc} instantiated with {len(all_omegas)} "
                f"arguments but abstracts {len(block.delta)}")
        if OBS.enabled:
            OBS.metrics.inc("t.subst.instantiate")
        if PROFILER.enabled:
            PROFILER.enter_t(loc.name, block)
        inst = instantiate_code_block(block, all_omegas)
        if inst.delta:
            raise MachineError(
                f"jump to block {loc} with uninstantiated binders "
                f"{[str(b) for b in inst.delta]}")
        return inst.instrs

    # -- instruction execution ----------------------------------------

    def exec_instruction(self, i: Instruction, rest: InstrSeq) -> InstrSeq:
        """Execute one straight-line instruction; returns the remainder of
        the sequence (which ``unpack`` rewrites via type substitution)."""
        mem = self.memory
        if isinstance(i, Mv):
            mem.set_reg(i.rd, self.resolve(i.u))
            return rest
        if isinstance(i, Aop):
            left = mem.get_reg(i.rs)
            if not isinstance(left, WInt):
                raise MachineError(f"aop source {i.rs} holds non-int {left}")
            right = self.resolve_int(i.u)
            mem.set_reg(i.rd, WInt(AOPS[i.op](left.value, right)))
            return rest
        if isinstance(i, Ld):
            ptr = mem.get_reg(i.rs)
            if not isinstance(ptr, WLoc):
                raise MachineError(f"ld through non-pointer {ptr}")
            tup = mem.tuple_at(ptr.loc)
            if not 0 <= i.index < len(tup.words):
                raise MachineError(f"ld index {i.index} out of range")
            mem.set_reg(i.rd, tup.words[i.index])
            return rest
        if isinstance(i, St):
            ptr = mem.get_reg(i.rd)
            if not isinstance(ptr, WLoc):
                raise MachineError(f"st through non-pointer {ptr}")
            mem.store_field(ptr.loc, i.index, mem.get_reg(i.rs))
            return rest
        if isinstance(i, Ralloc):
            words = mem.pop(i.n)
            loc = mem.alloc(HTuple(tuple(words)), REF)
            mem.set_reg(i.rd, WLoc(loc))
            return rest
        if isinstance(i, Balloc):
            words = mem.pop(i.n)
            loc = mem.alloc(HTuple(tuple(words)), BOX)
            mem.set_reg(i.rd, WLoc(loc))
            return rest
        if isinstance(i, Salloc):
            mem.push(*([WUnit()] * i.n))
            return rest
        if isinstance(i, Sfree):
            mem.pop(i.n)
            return rest
        if isinstance(i, Sld):
            mem.set_reg(i.rd, mem.peek(i.index))
            return rest
        if isinstance(i, Sst):
            mem.poke(i.index, mem.get_reg(i.rs))
            return rest
        if isinstance(i, Unpack):
            w = self.resolve(i.u)
            if not isinstance(w, Pack):
                raise MachineError(f"unpack of non-package value {w}")
            mem.set_reg(i.rd, w.body)  # type: ignore[arg-type]
            if OBS.enabled:
                OBS.metrics.inc("t.subst.unpack")
            return subst_term(
                rest, Subst.single(KIND_ALPHA, i.alpha, w.hidden))
        if isinstance(i, UnfoldI):
            w = self.resolve(i.u)
            if not isinstance(w, Fold):
                raise MachineError(f"unfold of non-fold value {w}")
            mem.set_reg(i.rd, w.body)  # type: ignore[arg-type]
            return rest
        return self.exec_extended_instruction(i, rest)

    def exec_extended_instruction(self, i: Instruction,
                                  rest: InstrSeq) -> InstrSeq:
        """Hook for the FT machine's ``import``/``protect``."""
        raise MachineError(
            f"instruction {type(i).__name__} is not a pure T instruction "
            "(use the FT machine for mixed programs)")

    # -- terminator execution ------------------------------------------

    def exec_terminator(self, t: Terminator) -> MachineState:
        if isinstance(t, Halt):
            word = self.memory.get_reg(t.r)
            state = HaltedState(word, t.ty, t.sigma, t.r)
            self.emit("halt", None, detail=lambda: f"{t.r} -> {word}")
            return state
        if isinstance(t, Jmp):
            loc, omegas = self.resolve_code_target(t.u)
            self.emit("jmp", loc.name)
            return self.enter_block(loc, omegas)
        if isinstance(t, Call):
            loc, omegas = self.resolve_code_target(t.u)
            self.emit("call", loc.name)
            return self.enter_block(loc, omegas, extra=(t.sigma, t.q))
        if isinstance(t, Ret):
            loc, omegas = self.resolve_code_target(RegOp(t.r))
            self.emit("ret", loc.name, detail=lambda: f"result in {t.rr}")
            return self.enter_block(loc, omegas)
        raise MachineError(f"unknown terminator {type(t).__name__}")

    # -- driving --------------------------------------------------------

    def step(self, state: MachineState) -> MachineState:
        """One small step; halted states are fixed points."""
        if isinstance(state, HaltedState):
            return state
        self.steps += 1
        if OBS.enabled:
            OBS.metrics.inc("t.machine.steps")
        if PROFILER.enabled:
            PROFILER.step_t()
        if state.instrs:
            head, rest = state.instrs[0], state.rest
            if isinstance(head, Bnz):
                # bnz is straight-line *or* a jump; handle it here where
                # both continuations are at hand.
                scrut = self.memory.get_reg(head.r)
                if not isinstance(scrut, WInt):
                    raise MachineError(
                        f"bnz scrutinee {head.r} holds non-int {scrut}")
                if scrut.value != 0:
                    loc, omegas = self.resolve_code_target(head.u)
                    self.emit("bnz", loc.name, detail="taken")
                    return self.enter_block(loc, omegas)
                return rest
            return self.exec_instruction(head, rest)
        return self.exec_terminator(state.term)

    def run_seq(self, iseq: InstrSeq,
                fuel: Optional[int] = None) -> HaltedState:
        """Drive ``iseq`` to a halt under the machine's budget.

        Each ``run_seq`` call is a fresh top-level run: the fuel spend is
        reset (and, if ``fuel`` is given, the ceiling replaced) before
        driving.  Use :meth:`resume` to continue an interrupted run
        without resetting.
        """
        self.budget.refill(fuel)
        return self._drive(iseq)

    def resume(self, fuel: Optional[int] = None) -> HaltedState:
        """Continue an interrupted run (e.g. after restoring a snapshot).

        ``fuel`` refills the budget for this slice; without it the run
        picks up whatever fuel remains unspent.
        """
        if self._state is None:
            raise SnapshotError("machine has no suspended state to resume")
        if fuel is not None:
            self.budget.refill(fuel)
        return self._drive(self._state)

    def _drive(self, state: MachineState) -> HaltedState:
        if self.tal_engine == "fast":
            from repro.tal import fast
            if not fast.instrumented(self):
                return fast.fast_drive(self, state)
        budget = self.budget
        prof = PROFILER if PROFILER.enabled else None
        prof_base = prof.enter_engine() if prof is not None else 0
        with OBS.span("t.run_seq", "t"):
            try:
                while not isinstance(state, HaltedState):
                    budget.consume_fuel()
                    state = self.step(state)
                return state
            except RecursionError:
                raise budget.depth_error() from None
            finally:
                # Keep the suspended (or halted) state live so a tripped
                # governor leaves the machine checkpointable.
                if prof is not None:
                    prof.exit_engine(prof_base)
                self._state = state

    def run_component(self, comp: Component,
                      fuel: Optional[int] = None) -> HaltedState:
        return self.run_seq(self.load_component(comp), fuel)

    # -- checkpointing -------------------------------------------------

    def snapshot_resumable(self) -> dict:
        """The picklable state dict a checkpoint carries; subclasses
        extend it with their own suspension records."""
        return {
            "memory": self.memory,
            "state": self._state,
            "budget": self.budget,
            "steps": self.steps,
            "tal_engine": self.tal_engine,
        }

    def snapshot(self) -> MachineSnapshot:
        """Capture the machine as a content-hashed, picklable checkpoint.

        Valid whenever the machine is not mid-:meth:`step` -- in
        practice: after a budget governor tripped, or after a halt.
        """
        return MachineSnapshot.capture(self.kind, self.snapshot_resumable())

    def _restore_resumable(self, state: dict) -> None:
        self.steps = state.get("steps", 0)
        self._state = state.get("state")
        # Snapshots are engine-portable: honour the recorded engine but
        # tolerate snapshots from before the fast tier existed.
        try:
            self.tal_engine = resolve_tal_engine(state.get("tal_engine"))
        except ValueError:
            self.tal_engine = "ref"

    @classmethod
    def restore(cls, snapshot: MachineSnapshot, trace: bool = False,
                max_events: Optional[int] = None) -> "TalMachine":
        """Revive a checkpoint into a fresh machine (same or different
        process); drive it on with :meth:`resume`."""
        if snapshot.kind != cls.kind:
            raise SnapshotError(
                f"cannot restore a {snapshot.kind!r} snapshot into "
                f"{cls.__name__}")
        state = snapshot.state()
        machine = cls(memory=state["memory"], trace=trace,
                      max_events=max_events, budget=state["budget"])
        machine._restore_resumable(state)
        return machine


def run_component(comp: Component, fuel: Optional[int] = None,
                  trace: bool = False,
                  max_events: Optional[int] = None,
                  budget: Optional[Budget] = None,
                  tal_engine: Optional[str] = None
                  ) -> Tuple[HaltedState, TalMachine]:
    """Run a closed T component in a fresh memory; returns the halt state
    and the machine (for its memory and trace)."""
    machine = TalMachine(trace=trace, max_events=max_events, budget=budget,
                         tal_engine=tal_engine)
    return machine.run_component(comp, fuel), machine
