"""Small-step call-by-value evaluator for pure F (paper section 4.1).

Evaluation order follows the paper's evaluation contexts (Fig 5)::

    E ::= [.] | E p e | v p E | if0 E e e | E e... | v v... E e...
        | fold E | unfold E | <v..., E, e...> | pi_i(E)

i.e. left-to-right call-by-value.  :func:`step` performs one reduction,
:func:`evaluate` iterates it under a fuel bound (raising
:class:`~repro.errors.FuelExhausted` on potential divergence, as needed by
the factorial example of Fig 17).

:class:`FEvaluator` is the resumable form of that loop, and the one
substitution loop there is: with ``ft=machine`` it is also the ``subst``
F engine of the mixed-language machine (:mod:`repro.ft.machine`), which
threads the T memory through, since embedded assembly may mutate the
stack and heap, and runs a boundary's component when the loop stops at
one.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import MachineError
from repro.obs.events import OBS
from repro.obs.profile import PROFILER
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import MachineSnapshot
from repro.f.syntax import (
    App, BinOp, FExpr, Fold, If0, IntE, is_value, Lam, Proj, subst_expr,
    TupleE, Unfold, UnitE,
)

__all__ = ["step", "evaluate", "FEvaluator", "reduce_redex", "apply_binop"]


def apply_binop(op: str, left: int, right: int) -> int:
    """Evaluate a primitive ``p`` on integers."""
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    raise MachineError(f"unknown primitive operation {op!r}")


def reduce_redex(e: FExpr) -> Optional[FExpr]:
    """Contract ``e`` if it is itself a redex (all subterms values)."""
    if isinstance(e, BinOp) and is_value(e.left) and is_value(e.right):
        if not isinstance(e.left, IntE) or not isinstance(e.right, IntE):
            raise MachineError(f"primitive {e.op!r} applied to non-integers")
        return IntE(apply_binop(e.op, e.left.value, e.right.value))
    if isinstance(e, If0) and is_value(e.cond):
        if not isinstance(e.cond, IntE):
            raise MachineError("if0 scrutinee is not an integer")
        return e.then if e.cond.value == 0 else e.els
    if isinstance(e, App) and is_value(e.fn) and all(is_value(a) for a in e.args):
        if not isinstance(e.fn, Lam):
            raise MachineError("application of a non-lambda value")
        if len(e.fn.params) != len(e.args):
            raise MachineError("application arity mismatch at runtime")
        body = e.fn.body
        for (x, _), arg in zip(e.fn.params, e.args):
            body = subst_expr(body, {x: arg})
        return body
    if isinstance(e, Unfold) and is_value(e.body):
        if not isinstance(e.body, Fold):
            raise MachineError("unfold of a non-fold value")
        return e.body.body
    if isinstance(e, Proj) and is_value(e.body):
        if not isinstance(e.body, TupleE):
            raise MachineError("projection from a non-tuple value")
        if not 0 <= e.index < len(e.body.items):
            raise MachineError(
                f"projection index {e.index} out of range at runtime")
        return e.body.items[e.index]
    return None


def split_context(e: FExpr):
    """Decompose one evaluation-context layer: return ``(frame, subterm)``
    where ``subterm`` is the leftmost non-value child of ``e`` and
    ``frame(subterm') = e[subterm']``.

    Returns ``None`` when ``e`` has no non-value child to descend into
    (i.e. ``e`` should itself be a redex -- or is stuck).
    """
    if isinstance(e, BinOp):
        if not is_value(e.left):
            return (lambda x: BinOp(e.op, x, e.right)), e.left
        if not is_value(e.right):
            return (lambda x: BinOp(e.op, e.left, x)), e.right
        return None
    if isinstance(e, If0):
        if not is_value(e.cond):
            return (lambda x: If0(x, e.then, e.els)), e.cond
        return None
    if isinstance(e, App):
        if not is_value(e.fn):
            return (lambda x: App(x, e.args)), e.fn
        for i, a in enumerate(e.args):
            if not is_value(a):
                def frame(x, i=i):
                    args = list(e.args)
                    args[i] = x
                    return App(e.fn, tuple(args))
                return frame, a
        return None
    if isinstance(e, Fold):
        if not is_value(e.body):
            return (lambda x: Fold(e.ann, x)), e.body
        return None
    if isinstance(e, Unfold):
        if not is_value(e.body):
            return (lambda x: Unfold(x)), e.body
        return None
    if isinstance(e, TupleE):
        for i, a in enumerate(e.items):
            if not is_value(a):
                def frame(x, i=i):
                    items = list(e.items)
                    items[i] = x
                    return TupleE(tuple(items))
                return frame, a
        return None
    if isinstance(e, Proj):
        if not is_value(e.body):
            return (lambda x: Proj(e.index, x)), e.body
        return None
    return None


#: One-slot decomposition cache for :func:`step`: ``(result_term,
#: frames, focus)`` from the previous call.  Iterating ``step`` used to
#: re-decompose the whole term every call -- O(context depth) per step,
#: quadratic overall; the cache resumes the previous call's leftmost-redex
#: path when handed back exactly the term it returned (checked by
#: identity; the strong reference keeps the id stable).  Single-slot and
#: module-global: interleaving steps of two different terms just misses.
_STEP_CACHE: Optional[tuple] = None


def step(e: FExpr) -> Optional[FExpr]:
    """One small step of pure F; ``None`` when ``e`` is a value.

    Decomposition into an evaluation context is *iterative* (an explicit
    frame stack), so divergent programs that grow deep left-nested contexts
    (e.g. factorial's multiplication chain) never exhaust Python's
    recursion limit before their fuel.  Feeding each result straight back
    in resumes the cached context path from the previous call, so an
    iterated-``step`` driver pays O(depth) once per contraction locality
    shift rather than per step.

    Raises :class:`MachineError` on stuck non-value states (unreachable from
    well-typed programs) and on FT-only forms, which require the mixed
    machine.
    """
    global _STEP_CACHE
    if is_value(e):
        return None
    cached = _STEP_CACHE
    if cached is not None and cached[0] is e:
        _, frames, cur = cached
    else:
        frames = []
        cur = e
    while True:
        contracted = reduce_redex(cur)
        if contracted is not None:
            break
        split = split_context(cur)
        if split is not None:
            frame, cur = split
            frames.append(frame)
            continue
        if is_value(cur) and frames:
            # Only reachable on a resumed path: the previous contraction
            # left a value at the focus, so plug it and climb.
            cur = frames.pop()(cur)
            continue
        _STEP_CACHE = None
        raise MachineError(
            f"cannot step {type(cur).__name__}: not a pure F redex "
            "(use repro.ft.machine for mixed programs)")
    result = contracted
    for frame in reversed(frames):
        result = frame(result)
    _STEP_CACHE = (result, frames, contracted)
    return result


class FEvaluator:
    """A resumable machine for F by the literal substitution rules: a
    linear loop under a :class:`Budget`.

    Unlike iterated :func:`step` -- which re-decomposes the whole term
    every step and is therefore quadratic in context depth -- the
    evaluator keeps its evaluation-context frames *between* steps, so a
    depth-``d`` context costs ``O(d)`` once, not ``O(d)`` per step.

    The machine is checkpointable: when a budget governor trips (fuel,
    heap via embedded boundaries, depth), the evaluator retains its
    focus and frame stack; :meth:`snapshot` folds them back into a plain
    picklable F term, and :meth:`restore` + :meth:`run` continues
    exactly where the interrupted run stopped.  Python-level
    :class:`RecursionError` from deep substitutions or value checks is
    caught and surfaced as the structured depth verdict.

    With ``ft=machine`` it runs as the ``subst`` F engine of an
    :class:`~repro.ft.machine.FTMachine`, exactly as
    :class:`~repro.f.cek.CEKEvaluator` does: it shares the machine's
    budget and step count, :meth:`run` returns the boundary it stops at
    (after charging one fuel unit for entering it), and :meth:`feed`
    continues with the crossing's value.
    """

    kind = "f"

    def __init__(self, expr: FExpr, fuel: Optional[int] = None,
                 heap: Optional[int] = None, depth: Optional[int] = None,
                 budget: Optional[Budget] = None, ft=None):
        self._ft = ft
        self.budget = ft.budget if ft is not None \
            else Budget.of(fuel, heap, depth, budget)
        self._cur: FExpr = expr
        self._frames: List = []   # innermost frame last; closures, not pickled
        self._value: Optional[FExpr] = None

    @property
    def done(self) -> bool:
        return self._value is not None

    def run(self, fuel: Optional[int] = None) -> FExpr:
        """Drive the machine to a value (or a governor trip).

        ``fuel`` -- if given -- refills the budget's fuel for this slice,
        which is how a restored evaluator is granted its remaining steps.
        """
        if fuel is not None:
            self.budget.refill(fuel)
        if self._value is not None:
            return self._value
        if self._ft is not None:
            # Under an FT machine the machine's loop owns the span and
            # the profiler barrier.
            return self._drive()
        prof = PROFILER if PROFILER.enabled else None
        prof_base = prof.enter_engine() if prof is not None else 0
        with OBS.span("f.evaluate", "f"):
            try:
                return self._drive()
            finally:
                if prof is not None:
                    prof.exit_engine(prof_base)

    def feed(self, value: FExpr) -> None:
        """Continue after a boundary crossing with its value."""
        self._cur = value

    def _drive(self) -> FExpr:
        budget = self.budget
        ft = self._ft
        cur, frames = self._cur, self._frames
        obs_on = OBS.enabled
        prof = PROFILER if PROFILER.enabled else None
        try:
            while True:
                if is_value(cur):
                    if not frames:
                        self._value = cur
                        return cur
                    cur = frames.pop()(cur)
                    continue
                # Fuel is charged on contractions and boundary entries
                # only -- never on context descent.  A resumed run
                # re-descends its plugged context for free, so with
                # descent charged a short fuel slice could be spent
                # entirely on re-decomposition and a resume loop would
                # make no semantic progress; with this accounting,
                # run(n) == run(k); resume(n - k) holds *exactly*.
                contracted = reduce_redex(cur)
                if contracted is not None:
                    budget.consume_fuel()
                    if ft is not None:
                        ft.steps += 1
                    if obs_on:
                        OBS.metrics.inc("f.machine.steps")
                    if prof is not None:
                        if cur.__class__ is App and isinstance(cur.fn, Lam):
                            prof.beta(cur.fn, len(frames))
                        else:
                            prof.step(len(frames))
                    cur = contracted
                    continue
                split = split_context(cur)
                if split is not None:
                    frame, cur = split
                    frames.append(frame)
                    budget.check_depth(len(frames))
                    continue
                if ft is None:
                    raise MachineError(
                        f"cannot step {type(cur).__name__}: not a pure F "
                        "redex (use repro.ft.machine for mixed programs)")
                # Imported here: repro.ft's package imports this module.
                from repro.ft.syntax import Boundary, Hole

                if cur.__class__ is Boundary:
                    # One unit on entry; the FT machine runs the component
                    # and feeds its value in where the hole now stands.
                    budget.consume_fuel()
                    request, cur = cur, Hole()
                    return request
                raise MachineError(
                    f"cannot step {type(cur).__name__}: not a value and "
                    "not a reducible FT form (free variable?)")
        except RecursionError:
            raise budget.depth_error(len(frames)) from None
        finally:
            # Keep the suspended state live for snapshot/resume even
            # when a governor just tripped.
            self._cur, self._frames = cur, frames

    # -- checkpointing ---------------------------------------------------

    def pending_expr(self) -> FExpr:
        """The whole term under evaluation, frames folded back in.

        This is the picklable form of the machine: re-decomposing it on
        resume costs one ``O(depth)`` descent and no fuel.
        """
        e = self._cur
        for frame in reversed(self._frames):
            e = frame(e)
        return e

    def snapshot(self) -> MachineSnapshot:
        return MachineSnapshot.capture(self.kind, {
            "expr": self.pending_expr(),
            "budget": self.budget,
            "value": self._value,
        })

    @classmethod
    def restore(cls, snapshot: MachineSnapshot) -> "FEvaluator":
        state = snapshot.state()
        ev = cls(state["expr"], budget=state["budget"])
        ev._value = state.get("value")
        return ev


def evaluate(e: FExpr, fuel: Optional[int] = None, *,
             heap: Optional[int] = None, depth: Optional[int] = None,
             budget: Optional[Budget] = None,
             engine: Optional[str] = None) -> FExpr:
    """Run ``e`` to a value under a resource budget.

    ``fuel`` defaults to :data:`repro.resilience.budget.DEFAULT_FUEL` --
    the same ceiling as the T and FT machines -- and a spent budget
    raises the structured :class:`~repro.errors.ResourceExhausted`
    family rather than ever crashing the host interpreter.

    ``engine`` selects the stepper: ``"cek"`` (the default) runs the
    environment machine of :mod:`repro.f.cek`, ``"subst"`` this module's
    literal substitution loop.  The two are observably step-equivalent;
    values, step counts, and budget verdicts are identical.
    """
    # Imported lazily: repro.f.cek itself imports apply_binop from here.
    from repro.f.cek import CEKEvaluator, resolve_engine

    if resolve_engine(engine) == "cek":
        return CEKEvaluator(e, fuel=fuel, heap=heap, depth=depth,
                            budget=budget).run()
    return FEvaluator(e, fuel=fuel, heap=heap, depth=depth,
                      budget=budget).run()
