"""The FT abstract machine: mixed-language evaluation (paper Figs 6 and 8).

Both languages execute against the *same* memory ``M = (H, R, S)``:

* F code reduces by the call-by-value rules of :mod:`repro.f.eval`, except
  that reaching a boundary ``tauFT e`` runs the T component ``e`` (merging
  its heap fragment, stepping its instructions) until it halts, then
  translates the halt register's word back to F via ``tauFT(w, M)``;
* T code executes by the rules of :mod:`repro.tal.machine`, except that

  - ``protect`` is a typing directive and erases to a no-op, and
  - ``import rd, sigma TFtau e`` evaluates the F expression ``e`` to a
    value (recursively entering F evaluation), translates it via
    ``TFtau(v, M)``, and moves the resulting word into ``rd`` -- exactly
    the paper's reduction to ``mv rd, w; I``.

A single :class:`~repro.resilience.budget.Budget` is shared across both
languages and all nesting levels, so the equivalence checker can observe
co-divergence of mixed programs (e.g. Fig 17's factorials on negative
inputs): when the fuel is exhausted anywhere,
:class:`~repro.errors.FuelExhausted` propagates out -- and, new in the
resilience runtime, the machine records a *suspension*: as the exception
unwinds through the nested F/T evaluation levels, each level appends a
picklable continuation record (innermost first).  :meth:`FTMachine.resume`
replays those records in order, feeding each level's result outward, so a
fuel-suspended run can be checkpointed with :meth:`FTMachine.snapshot`,
shipped to another process, and finished there with bit-identical results.
Suspension is a fuel-epoch feature: heap/depth exhaustion and machine
errors are terminal verdicts, not suspension points.

Boundary crossings emit ``boundary`` trace events, letting
:mod:`repro.analysis.trace` reconstruct the cross-language control-flow
diagram of Fig 12.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.errors import FuelExhausted, MachineError, SnapshotError
from repro.f.eval import reduce_redex, split_context
from repro.obs.events import OBS
from repro.obs.profile import PROFILER
from repro.f.syntax import App, FExpr, is_value, Lam
from repro.ft.boundary import f_to_t, t_to_f
from repro.ft.syntax import Boundary, Hole, Import, Protect
from repro.resilience.budget import Budget
from repro.tal.heap import Memory
from repro.tal.machine import HaltedState, MachineState, TalMachine
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
        # Suspension records, appended innermost-first as a FuelExhausted
        # unwinds through nested evaluation levels; see resume().
        self._suspension: List[tuple] = []
        # The value a replayed inner crossing produced, waiting to be
        # substituted at the Hole in the enclosing F expression.
        self._hole_value: Optional[FExpr] = None

    # -- old fuel API, preserved over the shared budget ----------------

    @property
    def fuel(self) -> int:
        """The fuel ceiling (historically a constructor argument)."""
        return self.budget.max_fuel

    @property
    def fuel_left(self) -> int:
        return self.budget.fuel_remaining

    def consume(self, n: int = 1) -> None:
        self.budget.consume_fuel(n)

    # ------------------------------------------------------------------
    # T side: the two new instructions
    # ------------------------------------------------------------------

    def exec_extended_instruction(self, i: Instruction,
                                  rest: InstrSeq) -> InstrSeq:
        if isinstance(i, Protect):
            # protect is erased at runtime; it only constrains typing.
            return rest
        if isinstance(i, Import):
            if OBS.enabled:
                OBS.metrics.inc("ft.boundary.t_to_f")
            with OBS.span("ft.import", "f", ty=i.ty):
                self.emit("boundary", None,
                          detail=lambda: f"TF[{i.ty}] enter")
                try:
                    value = self.eval_fexpr(i.expr)
                except FuelExhausted:
                    # The inner F level recorded its continuation; ours
                    # is "translate whatever it produces into rd, then
                    # keep running rest".
                    self._suspension.append(("import", i.rd, i.ty, rest))
                    raise
                self._finish_import(i.rd, i.ty, value)
            return rest
        return super().exec_extended_instruction(i, rest)

    def _finish_import(self, rd: str, ty, value: FExpr) -> None:
        word = f_to_t(value, ty, self.memory)
        self.memory.set_reg(rd, word)
        self.emit("boundary", None,
                  detail=lambda: f"TF[{ty}] -> {rd} = {word}")

    # ------------------------------------------------------------------
    # F side
    # ------------------------------------------------------------------

    def eval_fexpr(self, e: FExpr) -> FExpr:
        """Run an F(T) expression to a value under the shared budget,
        on whichever engine this machine was built with.

        The ``cek`` engine (default) evaluates with environments and
        closures (:class:`repro.f.cek.CEKEvaluator` with ``ft=self``), so
        beta steps cost an environment extension instead of a body copy;
        ``subst`` is the literal Fig-5 substitution loop below.  Both
        charge fuel at the same contractions, count the same
        ``f.machine.steps``, and record identical suspension/``Hole``
        continuations on fuel exhaustion.
        """
        if self.engine == "cek":
            from repro.f.cek import CEKEvaluator

            return CEKEvaluator(e, ft=self).run()
        return self._eval_fexpr_subst(e)

    def _eval_fexpr_subst(self, e: FExpr) -> FExpr:
        """The substitution engine's F loop (kept verbatim as the
        reference semantics the differential harness locksteps against).

        This is a CEK-style loop in shape: the evaluation context is kept
        as an explicit frame stack *across* steps, so deep contexts
        (divergent recursion) cost constant work per step instead of a
        full context rebuild -- :meth:`step_fexpr` exists for the one-step
        API but would be quadratic here.
        """
        budget = self.budget
        frames: List = []
        cur = e
        prof = PROFILER if PROFILER.enabled else None
        prof_base = prof.enter_engine() if prof is not None else 0
        try:
            while True:
                if isinstance(cur, Hole):
                    # A resumed expression: the replayed crossing's value
                    # lands here (set up by resume()).
                    if self._hole_value is None:
                        raise MachineError(
                            "resumption hole reached with no pending value")
                    cur, self._hole_value = self._hole_value, None
                    continue
                if is_value(cur):
                    if not frames:
                        return cur
                    cur = frames.pop()(cur)
                    continue
                # Fuel is charged on contractions and boundary entries
                # only -- never on context descent.  A resumed run
                # re-descends its rebuilt expression for free, so with
                # descent charged a short fuel slice could be spent
                # entirely on re-decomposition and a resume loop would
                # make no semantic progress; with this accounting,
                # run(n) == run(k); resume(n - k) holds *exactly*.
                if isinstance(cur, Boundary):
                    try:
                        self.consume()
                        cur = self._cross_boundary(cur)
                    except FuelExhausted:
                        if self._suspension:
                            # The crossing recorded its own continuation;
                            # our expression resumes with a hole where
                            # the crossing's value will land.
                            cur = Hole()
                        self._suspension.append(
                            ("f", _rebuild(cur, frames)))
                        raise
                    continue
                contracted = reduce_redex(cur)
                if contracted is not None:
                    try:
                        self.consume()
                    except FuelExhausted:
                        self._suspension.append(
                            ("f", _rebuild(cur, frames)))
                        raise
                    self.steps += 1
                    if OBS.enabled:
                        OBS.metrics.inc("f.machine.steps")
                    if prof is not None:
                        if cur.__class__ is App and isinstance(cur.fn, Lam):
                            prof.beta(cur.fn, len(frames))
                        else:
                            prof.step(len(frames))
                    cur = contracted
                    continue
                split = split_context(cur)
                if split is None:
                    raise MachineError(
                        f"cannot step {type(cur).__name__}: not a value and "
                        "not a reducible FT form (free variable?)")
                frame, sub = split
                frames.append(frame)
                budget.check_depth(len(frames))
                cur = sub
        except RecursionError:
            raise budget.depth_error(len(frames)) from None
        finally:
            if prof is not None:
                prof.exit_engine(prof_base)

    def step_fexpr(self, e: FExpr) -> FExpr:
        """One F-level step (a boundary runs its whole component).

        Decomposition is iterative (explicit frame stack) so deep contexts
        built by divergent programs exhaust *fuel*, not Python's stack.
        """
        self.steps += 1
        frames = []
        cur = e
        while True:
            if isinstance(cur, Boundary):
                contracted = self._cross_boundary(cur)
                break
            contracted = reduce_redex(cur)
            if contracted is not None:
                break
            split = split_context(cur)
            if split is None:
                raise MachineError(
                    f"cannot step {type(cur).__name__}: not a value and "
                    "not a reducible FT form (free variable?)")
            frame, cur = split
            frames.append(frame)
        for frame in reversed(frames):
            contracted = frame(contracted)
        return contracted

    def _cross_boundary(self, e: Boundary) -> FExpr:
        if OBS.enabled:
            OBS.metrics.inc("ft.boundary.f_to_t")
        with OBS.span("ft.boundary", "t", ty=e.ty):
            self.emit("boundary", None,
                      detail=lambda: f"FT[{e.ty}] enter")
            try:
                halted = self.run_t(self.load_component(e.comp))
            except FuelExhausted:
                self._suspension.append(("boundary", e.ty))
                raise
            return self._finish_boundary(e.ty, halted)

    def _finish_boundary(self, ty, halted: HaltedState) -> FExpr:
        value = t_to_f(halted.word, ty, self.memory)
        self.emit("boundary", None, detail=lambda: f"FT[{ty}] -> {value}")
        return value

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run_t(self, state: MachineState) -> HaltedState:
        """Run a T machine state to halt under the shared budget."""
        if self.tal_engine == "fast":
            from repro.tal import fast
            if not fast.instrumented(self):
                return fast.fast_run_t(self, state)
        prof = PROFILER if PROFILER.enabled else None
        prof_base = prof.enter_engine() if prof is not None else 0
        try:
            while not isinstance(state, HaltedState):
                try:
                    self.consume()
                except FuelExhausted:
                    # Our own fuel check tripped: this pre-step state is
                    # the exact resume point.  (When step() raises
                    # instead, a nested import already recorded the finer
                    # continuation.)
                    self._suspension.append(("t", state))
                    raise
                state = self.step(state)
            return state
        finally:
            if prof is not None:
                prof.exit_engine(prof_base)

    def evaluate(self, e: FExpr) -> FExpr:
        """Entry point for F-outside programs."""
        self._begin_run()
        with OBS.span("ft.evaluate", "f"):
            return self.eval_fexpr(e)

    def run_component(self, comp: Component,
                      fuel: Optional[int] = None) -> HaltedState:
        """Entry point for T-outside programs (fuel defaults to the
        machine's remaining budget)."""
        if fuel is not None:
            self.budget.refill(fuel)
        self._begin_run()
        return self.run_t(self.load_component(comp))

    def _begin_run(self) -> None:
        self._suspension = []
        self._hole_value = None

    # ------------------------------------------------------------------
    # Suspension / resumption
    # ------------------------------------------------------------------

    @property
    def suspended(self) -> bool:
        return bool(self._suspension)

    def resume(self, fuel: Optional[int] = None) -> FTOutcome:
        """Continue a fuel-suspended run to its outcome.

        Replays the suspension records innermost-first, feeding each
        level's result outward: a suspended T state runs to halt, a
        pending boundary translates that halt back to F, a suspended F
        expression evaluates with the carried value substituted at its
        hole, and a pending import moves the carried value into its
        register and keeps executing.  ``fuel`` refills the budget for
        this slice; without it the run continues on whatever remains.
        If the refilled fuel runs out as well, the machine suspends
        again -- resumable snapshots compose across any number of hops.
        """
        if fuel is not None:
            self.budget.refill(fuel)
        records, self._suspension = self._suspension, []
        if not records:
            raise SnapshotError("machine has no suspended run to resume")
        carried: Optional[FTOutcome] = None
        for idx, record in enumerate(records):
            try:
                carried = self._replay(record, carried)
            except FuelExhausted:
                # The replayed level recorded its new (finer)
                # continuation; the levels we never reached still stand.
                self._suspension.extend(records[idx + 1:])
                raise
        return carried

    def _replay(self, record: tuple,
                carried: Optional[FTOutcome]) -> FTOutcome:
        tag = record[0]
        if tag == "t":
            return self.run_t(record[1])
        if tag == "boundary":
            if not isinstance(carried, HaltedState):
                raise SnapshotError(
                    "corrupt suspension: boundary record without a "
                    "halted T state to translate")
            return self._finish_boundary(record[1], carried)
        if tag == "f":
            if carried is not None:
                if not isinstance(carried, FExpr):
                    raise SnapshotError(
                        "corrupt suspension: F record fed a non-F value")
                self._hole_value = carried
            return self.eval_fexpr(record[1])
        if tag == "import":
            _, rd, ty, rest = record
            if not isinstance(carried, FExpr):
                raise SnapshotError(
                    "corrupt suspension: import record without an F value")
            with OBS.span("ft.import", "f", ty=ty):
                self._finish_import(rd, ty, carried)
            return self.run_t(rest)
        raise SnapshotError(f"corrupt suspension: unknown record {tag!r}")

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot_resumable(self) -> dict:
        state = super().snapshot_resumable()
        state["suspension"] = list(self._suspension)
        state["hole_value"] = self._hole_value
        state["engine"] = self.engine
        return state

    def _restore_resumable(self, state: dict) -> None:
        super()._restore_resumable(state)
        from repro.f.cek import resolve_engine

        self._suspension = list(state.get("suspension", ()))
        self._hole_value = state.get("hole_value")
        # Snapshots are engine-portable (suspension records are plain
        # terms), so a missing/foreign engine field just means "default".
        self.engine = resolve_engine(state.get("engine"))


def _rebuild(cur: FExpr, frames: List) -> FExpr:
    """Fold the frame stack back over the focus: the picklable whole-term
    form of a suspended F evaluation."""
    for frame in reversed(frames):
        cur = frame(cur)
    return cur


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
