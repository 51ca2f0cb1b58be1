"""The FT abstract machine: mixed-language evaluation (paper Figs 6 and 8).

Both languages execute against the *same* memory ``M = (H, R, S)``, and
one loop drives both -- Fig 8 defines FT as a single step relation over
configurations ``<M | e>``:

* an F engine (the environment machine of :mod:`repro.f.cek`, the
  default, or the substitution loop :class:`~repro.f.eval.FEvaluator`,
  each built with ``ft=`` this machine) reduces F by the call-by-value
  rules of :mod:`repro.f.eval` until it reaches a value or a boundary
  ``tauFT e``, which it hands back as a request;
* a T engine (the reference rules of :mod:`repro.tal.machine` or the fast
  tier of :mod:`repro.tal.fast`) executes instructions until ``halt`` or
  an ``import rd, sigma TFtau e``, which it hands back as an
  :class:`~repro.tal.machine.ImportRequest`; ``protect`` is a typing
  directive and erases to a no-op.

:meth:`FTMachine._drive` keeps one explicit control stack.  A boundary
pushes the waiting F computation, merges the component's heap fragment
and runs T; the halt register's word comes back through ``tauFT(w, M)``
and resumes the F frame below.  An import pushes the waiting T
continuation and evaluates the F payload; its value comes back through
``TFtau(v, M)`` into ``rd`` -- exactly the paper's reduction to
``mv rd, w; I``.  Nesting costs list entries, not host frames, so no
verdict depends on CPython's recursion limit.

A single :class:`~repro.resilience.budget.Budget` is shared across both
languages, so the equivalence checker can observe co-divergence of mixed
programs (e.g. Fig 17's factorials on negative inputs).  When the fuel
runs out, :class:`~repro.errors.FuelExhausted` propagates and the control
stack simply stays in place: :meth:`FTMachine.resume` continues the loop.
:meth:`FTMachine.snapshot` stores the stack as plain data -- a waiting F
frame as its evaluation context with a :class:`~repro.ft.syntax.Hole`
that resume plugs with the crossing's value, a waiting fast-T frame as
its reference instruction sequence -- so a suspended run can be shipped
to another process, and another engine, and finished there with
bit-identical results.  Heap/depth exhaustion and machine errors are
terminal verdicts, not suspension points.

Boundary crossings emit ``boundary`` trace events, letting
:mod:`repro.analysis.trace` reconstruct the cross-language control-flow
diagram of Fig 12; the ``ft.boundary``/``ft.import`` spans open when a
frame is pushed and close when it is popped.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.errors import FuelExhausted, SnapshotError
from repro.f.eval import FEvaluator, split_context
from repro.obs.events import OBS
from repro.obs.profile import PROFILER
from repro.f.syntax import FExpr
from repro.ft.boundary import f_to_t, t_to_f
from repro.ft.syntax import Boundary, Hole, Import, Protect
from repro.resilience.budget import Budget
from repro.tal.fast import FastPoint, fast_run_t, instrumented
from repro.tal.heap import Memory
from repro.tal.machine import HaltedState, ImportRequest, TalMachine
from repro.tal.syntax import Component, InstrSeq, Instruction

__all__ = ["FTMachine", "evaluate_ft", "run_ft_component"]

#: What a resumed run produces: an F value for F-outside programs, a
#: halt state for T-outside ones.
FTOutcome = Union[FExpr, HaltedState]

class FTMachine(TalMachine):
    """The multi-language machine.

    Use :meth:`evaluate` for F-outside programs and the inherited
    :meth:`run_component` interface (via :meth:`run_ft_component`) for
    T-outside programs.
    """

    kind = "ft"

    def __init__(self, memory: Optional[Memory] = None, trace: bool = False,
                 fuel: Optional[int] = None,
                 max_events: Optional[int] = None,
                 budget: Optional[Budget] = None,
                 engine: Optional[str] = None,
                 tal_engine: Optional[str] = None):
        # Imported lazily: repro.f.cek pulls in repro.ft.syntax, whose
        # package __init__ imports this module.
        from repro.f.cek import resolve_engine

        super().__init__(memory, trace, max_events=max_events,
                         budget=Budget.of(fuel=fuel, budget=budget),
                         tal_engine=tal_engine)
        #: Which F-side stepper drives pure-F segments: the environment
        #: machine of :mod:`repro.f.cek` (default) or the literal
        #: substitution loop.  Both are observably step-equivalent; the
        #: choice is operational and rides along in resumable snapshots.
        self.engine = resolve_engine(engine)
        # The control stack, outermost first.  ("boundary", waiting F,
        # ty) frames wait for a component's halt; ("import", T
        # continuation, rd, ty) frames wait for an F value.  The
        # computation in focus is self._state (None when no run is
        # suspended).
        self._stack: List[tuple] = []

    # ------------------------------------------------------------------
    # The two engines of a segment
    # ------------------------------------------------------------------

    def exec_extended_instruction(self, i: Instruction, rest: InstrSeq):
        if isinstance(i, Protect):
            # protect is erased at runtime; it only constrains typing.
            return rest
        if isinstance(i, Import):
            return ImportRequest(i, rest)
        return super().exec_extended_instruction(i, rest)

    def _f_engine(self, e: FExpr):
        """A fresh F engine on ``e``: the ``cek`` environment machine
        (default) or the literal Fig-5 substitution loop.  Both charge
        fuel at the same contractions, count the same
        ``f.machine.steps``, and stop at the same boundaries."""
        from repro.f.cek import CEKEvaluator

        return (CEKEvaluator if self.engine == "cek" else FEvaluator)(
            e, ft=self)

    def _run_t(self, state):
        """Run T from ``state`` until it halts or reaches an ``import``;
        on a fuel trip, leave the exact resume point in ``_state``."""
        if self.tal_engine == "fast" and not instrumented(self):
            try:
                return fast_run_t(self, state)
            except FuelExhausted:
                self._state = self._fast_residual
                raise
        if isinstance(state, FastPoint):
            state = state.materialize()
        consume = self.budget.consume_fuel
        try:
            while isinstance(state, InstrSeq):
                consume()
                state = self.step(state)
        except FuelExhausted:
            self._state = state
            raise
        return state

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def _drive(self, task) -> FTOutcome:
        """The FT loop.  ``task`` -- an F term or engine, or a T state --
        runs until it finishes or needs the other language; a request
        pushes a frame, a finished segment's result is translated and
        pops one."""
        stack = self._stack
        prof = PROFILER if PROFILER.enabled else None
        # Beside each waiting frame, for this drive only: its open span
        # and its engine's profiler barrier.  Frames inherited from a
        # suspension get fresh barriers (their extents are gone).
        marks = [(None, prof.enter_engine() if prof else 0) for _ in stack]
        base = prof.enter_engine() if prof else 0
        floor = marks[0][1] if marks else base
        try:
            while True:
                if isinstance(task, FExpr):
                    task = self._f_engine(task)
                self._state = task
                if isinstance(task, (InstrSeq, FastPoint)):
                    out = self._run_t(task)
                    if out.__class__ is ImportRequest:
                        i = out.instr
                        if OBS.enabled:
                            OBS.metrics.inc("ft.boundary.t_to_f")
                        span = OBS.span("ft.import", "f", ty=i.ty)
                        marks.append((span.__enter__(), base))
                        self.emit("boundary", None,
                                  detail=lambda: f"TF[{i.ty}] enter")
                        stack.append(("import", out.cont, i.rd, i.ty))
                        task = i.expr
                        if prof:
                            base = prof.enter_engine()
                        continue
                else:
                    out = task.run()
                    if out.__class__ is Boundary:
                        if OBS.enabled:
                            OBS.metrics.inc("ft.boundary.f_to_t")
                        span = OBS.span("ft.boundary", "t", ty=out.ty)
                        marks.append((span.__enter__(), base))
                        self.emit("boundary", None,
                                  detail=lambda: f"FT[{out.ty}] enter")
                        stack.append(("boundary", task, out.ty))
                        task = self.load_component(out.comp)
                        if prof:
                            base = prof.enter_engine()
                        continue
                # The segment finished: hand its result to the frame below.
                if prof:
                    prof.exit_engine(base)
                if not stack:
                    self._state = None
                    return out
                frame = stack.pop()
                if frame[0] == "boundary":
                    _, waiting, ty = frame
                    value = t_to_f(out.word, ty, self.memory)
                    self.emit("boundary", None,
                              detail=lambda: f"FT[{ty}] -> {value}")
                    if isinstance(waiting, FExpr):
                        task = _plug(waiting, value)
                    else:
                        waiting.feed(value)
                        task = waiting
                else:
                    _, task, rd, ty = frame
                    word = f_to_t(out, ty, self.memory)
                    self.memory.set_reg(rd, word)
                    self.emit("boundary", None,
                              detail=lambda: f"TF[{ty}] -> {rd} = {word}")
                span, base = marks.pop()
                if span is not None:
                    span.__exit__(None, None, None)
        except BaseException as exc:
            if not isinstance(exc, FuelExhausted):
                # A terminal verdict: nothing is left to resume.
                stack.clear()
                self._state = None
            raise
        finally:
            for span, _ in reversed(marks):
                if span is not None:
                    span.__exit__(None, None, None)
            if prof:
                prof.exit_engine(floor)

    def evaluate(self, e: FExpr) -> FExpr:
        """Entry point for F-outside programs."""
        self._begin_run()
        with OBS.span("ft.evaluate", "f"):
            return self._drive(e)

    def eval_fexpr(self, e: FExpr) -> FExpr:
        """Run an F(T) expression to a value under the shared budget, on
        whichever engine this machine was built with (no span)."""
        self._begin_run()
        return self._drive(e)

    def run_component(self, comp: Component,
                      fuel: Optional[int] = None) -> HaltedState:
        """Entry point for T-outside programs (fuel defaults to the
        machine's remaining budget)."""
        if fuel is not None:
            self.budget.refill(fuel)
        self._begin_run()
        return self._drive(self.load_component(comp))

    def _begin_run(self) -> None:
        self._stack = []
        self._state = None

    # ------------------------------------------------------------------
    # Suspension / resumption
    # ------------------------------------------------------------------

    @property
    def suspended(self) -> bool:
        return self._state is not None

    def resume(self, fuel: Optional[int] = None) -> FTOutcome:
        """Continue a fuel-suspended run to its outcome: the loop picks
        up the computation in focus with the control stack left as it
        was.  ``fuel`` refills the budget for this slice; without it the
        run continues on whatever remains.  If the refilled fuel runs
        out as well, the machine suspends again -- resumable snapshots
        compose across any number of hops."""
        if self._state is None:
            raise SnapshotError("machine has no suspended run to resume")
        if fuel is not None:
            self.budget.refill(fuel)
        return self._drive(self._state)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot_resumable(self) -> dict:
        state = super().snapshot_resumable()
        state["state"] = _plain(self._state)
        state["stack"] = [(f[0], _plain(f[1])) + f[2:] for f in self._stack]
        state["engine"] = self.engine
        return state

    def _restore_resumable(self, state: dict) -> None:
        super()._restore_resumable(state)
        from repro.f.cek import resolve_engine

        self._stack = list(state.get("stack", ()))
        # Snapshots are engine-portable (the stack is plain terms), so a
        # missing/foreign engine field just means "default".
        self.engine = resolve_engine(state.get("engine"))


def _plain(x):
    """The picklable form of a computation on the control stack: a live F
    engine folds back to its pending term (a waiting one with the hole
    its crossing's value fills), a live fast-tier point to its reference
    instruction sequence."""
    if isinstance(x, FastPoint):
        return x.materialize()
    if x is None or isinstance(x, (FExpr, InstrSeq)):
        return x
    return x.pending_expr()


def _plug(ctx: FExpr, value: FExpr) -> FExpr:
    """Fill the hole of a restored F frame's evaluation context with the
    value its crossing produced (iteratively: contexts can be deep)."""
    frames = []
    while not isinstance(ctx, Hole):
        split = split_context(ctx)
        if split is None:
            raise SnapshotError(
                "corrupt control stack: F context without a hole")
        frame, ctx = split
        frames.append(frame)
    for frame in reversed(frames):
        value = frame(value)
    return value


def evaluate_ft(e: FExpr, fuel: Optional[int] = None, trace: bool = False,
                max_events: Optional[int] = None,
                budget: Optional[Budget] = None,
                engine: Optional[str] = None,
                tal_engine: Optional[str] = None
                ) -> Tuple[FExpr, FTMachine]:
    """Evaluate a closed FT expression in a fresh memory."""
    machine = FTMachine(trace=trace, fuel=fuel, max_events=max_events,
                        budget=budget, engine=engine, tal_engine=tal_engine)
    return machine.evaluate(e), machine


def run_ft_component(comp: Component, fuel: Optional[int] = None,
                     trace: bool = False,
                     max_events: Optional[int] = None,
                     budget: Optional[Budget] = None,
                     engine: Optional[str] = None,
                     tal_engine: Optional[str] = None
                     ) -> Tuple[HaltedState, FTMachine]:
    """Run a closed FT component (T outside) in a fresh memory."""
    machine = FTMachine(trace=trace, fuel=fuel, max_events=max_events,
                        budget=budget, engine=engine, tal_engine=tal_engine)
    return machine.run_component(comp), machine
