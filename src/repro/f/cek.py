"""Environment-machine (CEK) fast path for F (paper Fig 5, abstract-machine form).

:class:`CEKEvaluator` is an environment/closure-based CEK machine that is
*observably step-equivalent* to the substitution stepper in
:mod:`repro.f.eval`: same values, same step counts, same budget verdicts.
Where the substitution engine contracts a beta redex by calling
``subst_expr`` (copying the whole lambda body) and re-materialises every
intermediate term, the CEK machine keeps

* **C**\\ ontrol -- the focused expression (or a machine value being
  returned),
* **E**\\ nvironment -- a variable -> value mapping replacing substitution,
* **K**\\ ontinuation -- an explicit stack of evaluation-context frames,
  one per context layer of Fig 5.

Step-equivalence invariants (these are load-bearing; the differential
harness in ``tests/test_engine_differential.py`` locksteps them):

* Fuel is charged exactly where the substitution engine charges it: one
  unit per *contraction* (binop, if0, beta, unfold-of-fold, projection)
  and one per boundary entry -- never on context descent, environment
  lookup, or frame pops.  ``f.machine.steps`` increments at the identical
  points, so counter trajectories match 1:1.
* A frame is pushed exactly when ``split_context`` would push one: only
  when a compound has a non-immediate child.  :func:`_try_value` mirrors
  ``is_value``'s short-circuits (variables resolve through the
  environment, lambdas close over it), so ``len(frames)`` -- and with it
  the depth verdict of :meth:`Budget.check_depth` -- agrees with the
  substitution engine at every step.
* Machine values reify to *structurally identical* plain F terms: every
  environment entry is a closed value, so substituting them
  (:func:`~repro.f.syntax.subst_closed`, one pass for a whole
  environment) performs no capture renaming and closure reification
  commutes with the beta-time substitutions the other engine performed
  eagerly.  Reification keeps an explicit stack, so a value of any
  depth reifies at the host's default recursion limit.

The machine runs in two modes: standalone (drop-in for
:class:`repro.f.eval.FEvaluator`, including cross-engine-compatible
checkpoints -- both snapshot a plain ``{"expr", "budget", "value"}``
payload under kind ``"f"``) and as an F engine of the
:class:`repro.ft.machine.FTMachine` driver (``ft=machine``), where it
stops at each boundary exactly where the substitution loop does and
hands it back to the driver, which feeds the crossing's value in.
"""

from __future__ import annotations

from operator import is_
from typing import Dict, List, Optional

from repro.errors import FunTALError, MachineError
from repro.obs.events import OBS
from repro.obs.profile import PROFILER
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import MachineSnapshot
from repro.f.eval import apply_binop
from repro.f.syntax import (
    App, BinOp, FExpr, Fold, free_vars, If0, IntE, is_value, Lam, Proj,
    register_value_class, subst_closed, TupleE, Unfold, UnitE, Var,
)
from repro.ft.syntax import Boundary, Hole

__all__ = [
    "CEKEvaluator", "Closure", "cek_evaluate",
    "ENGINES", "DEFAULT_ENGINE", "resolve_engine",
]

#: The selectable F engines: the literal substitution stepper of
#: :mod:`repro.f.eval` and this environment machine.
ENGINES = ("subst", "cek")

#: What ``--engine`` (and every ``engine=None`` default) resolves to.
DEFAULT_ENGINE = "cek"


def resolve_engine(name: Optional[str]) -> str:
    """Normalize an engine selection: ``None`` means the default."""
    if name is None:
        return DEFAULT_ENGINE
    if name not in ENGINES:
        raise FunTALError(
            f"unknown engine {name!r} (choose from {', '.join(ENGINES)})")
    return name


class Closure(FExpr):
    """A lambda paired with the environment it closed over.

    Registered as an extension value class so stray machine values behave
    as closed values everywhere (``is_value`` true, ``subst_expr``
    identity); the machine itself always reifies closures back to plain
    lambdas before they can reach a boundary, a snapshot, or a caller.
    """

    __slots__ = ("lam", "env")

    def __init__(self, lam: Lam, env: Dict[str, FExpr]):
        self.lam = lam
        self.env = env

    def __repr__(self) -> str:
        return f"Closure({self.lam!r}, {{{', '.join(sorted(self.env))}}})"

    def __reduce__(self):
        # Not a dataclass, so the PicklableSlots reduce inherited from
        # FExpr does not apply.  Snapshots always reify closures first;
        # this is only for stray direct pickles.
        return (Closure, (self.lam, self.env))


register_value_class(Closure)

_EMPTY_ENV: Dict[str, FExpr] = {}
#: The focus of an engine waiting on a boundary crossing.
_HOLE = Hole()

# Continuation-frame tags, one per evaluation-context layer of Fig 5.
# Frames are mutable lists so advancing within a layer (next argument,
# left operand done) rewrites in place instead of popping and re-pushing;
# the depth the budget sees is identical either way.
_K_BINOP_L = 0   # [tag, op, right_expr, env]        evaluating the left
_K_BINOP_R = 1   # [tag, op, left_value]             evaluating the right
_K_IF0 = 2       # [tag, then_expr, else_expr, env]  evaluating the scrutinee
_K_APP_F = 3     # [tag, args, env]                  evaluating the function
_K_APP_A = 4     # [tag, fn_value, done, args, idx, env]   evaluating arg idx
_K_FOLD = 5      # [tag, ann]                        evaluating the body
_K_UNFOLD = 6    # [tag]                             evaluating the body
_K_TUPLE = 7     # [tag, done, items, idx, env]      evaluating item idx
_K_PROJ = 8      # [tag, index]                      evaluating the body

_EVAL, _APPLY = 0, 1


def _try_value(e: FExpr, env: Dict[str, FExpr]) -> Optional[FExpr]:
    """The machine value of ``e`` if it is *immediately* a value under
    ``env`` -- mirroring ``is_value``'s short-circuits exactly, so a frame
    is pushed (and depth charged) only where ``split_context`` would
    descend.  Returns ``None`` for anything that needs evaluation."""
    cls = e.__class__
    if cls is IntE or cls is UnitE:
        return e
    if cls is Var:
        return env.get(e.name)
    if isinstance(e, Lam):
        return Closure(e, env)
    if cls is Fold:
        body = _try_value(e.body, env)
        if body is None:
            return None
        return e if body is e.body else Fold(e.ann, body)
    if cls is TupleE:
        items = e.items
        out: Optional[list] = None
        for i, item in enumerate(items):
            v = _try_value(item, env)
            if v is None:
                return None
            if out is None:
                if v is not item:
                    out = list(items[:i])
                    out.append(v)
            else:
                out.append(v)
        return e if out is None else TupleE(tuple(out))
    if cls is App or cls is BinOp or cls is If0 or cls is Unfold \
            or cls is Proj:
        return None          # known compounds: never immediate
    if is_value(e):          # extension values (lumps) are closed
        return e
    return None


def _reify(v: FExpr) -> FExpr:
    """Fold a machine value back into a plain (closed) F term.

    Closure reification substitutes the environment's reified values for
    the lambda's free variables; since every entry is closed, nothing is
    renamed and the result is structurally identical to the term the
    substitution engine would hold.  The walk keeps an explicit stack
    (a closure's values are reified before the closure itself), so a
    value the machine built iteratively, however deep, folds back at the
    host's default recursion limit.
    """
    todo: list = [v]
    out: list = []
    while todo:
        x = todo.pop()
        if x.__class__ is tuple:            # (value, keys): its parts are done
            x, keys = x
            parts = out[len(out) - len(keys):]
            del out[len(out) - len(keys):]
            cls = x.__class__
            if cls is Closure:
                new = subst_closed(x.lam, dict(zip(keys, parts)))
            elif cls is Fold:
                new = x if parts[0] is x.body else Fold(x.ann, parts[0])
            else:
                new = x if all(map(is_, parts, x.items)) \
                    else TupleE(tuple(parts))
            out.append(new)
            continue
        cls = x.__class__
        if cls is Closure:
            env = x.env
            keys = [k for k in free_vars(x.lam) if k in env] if env else []
            parts = [env[k] for k in keys]
        elif cls is Fold:
            keys, parts = (None,), [x.body]
        elif cls is TupleE:
            keys = parts = x.items
        else:
            out.append(x)
            continue
        todo.append((x, keys))
        todo.extend(reversed(parts))
    return out[0]


def _reify_open(e: FExpr, env: Dict[str, FExpr]) -> FExpr:
    """Substitute the environment's values into an arbitrary (possibly
    non-value) expression: the delayed substitutions the other engine
    performed at beta time.  The values are closed, so one pass
    substitutes them all."""
    if not env:
        return e
    return subst_closed(e, {x: _reify(env[x]) for x in free_vars(e)
                              if x in env})


def _plug(inner: FExpr, frames: List[list]) -> FExpr:
    """Fold the frame stack back over ``inner``: the picklable whole-term
    form of the machine state (matches the substitution engine's
    ``pending_expr`` / ``_rebuild`` output structurally)."""
    for f in reversed(frames):
        tag = f[0]
        if tag == _K_BINOP_L:
            inner = BinOp(f[1], inner, _reify_open(f[2], f[3]))
        elif tag == _K_BINOP_R:
            inner = BinOp(f[1], _reify(f[2]), inner)
        elif tag == _K_IF0:
            inner = If0(inner, _reify_open(f[1], f[3]),
                        _reify_open(f[2], f[3]))
        elif tag == _K_APP_F:
            inner = App(inner, tuple(_reify_open(a, f[2]) for a in f[1]))
        elif tag == _K_APP_A:
            fv, done, args, idx, env = f[1], f[2], f[3], f[4], f[5]
            rest = tuple(_reify_open(args[j], env)
                         for j in range(idx + 1, len(args)))
            inner = App(_reify(fv),
                        tuple(_reify(v) for v in done)
                        + (inner,) + rest)
        elif tag == _K_FOLD:
            inner = Fold(f[1], inner)
        elif tag == _K_UNFOLD:
            inner = Unfold(inner)
        elif tag == _K_TUPLE:
            done, items, idx, env = f[1], f[2], f[3], f[4]
            rest = tuple(_reify_open(items[j], env)
                         for j in range(idx + 1, len(items)))
            inner = TupleE(tuple(_reify(v) for v in done)
                           + (inner,) + rest)
        elif tag == _K_PROJ:
            inner = Proj(f[1], inner)
    return inner


class CEKEvaluator:
    """A resumable CEK machine for F, API-compatible with
    :class:`repro.f.eval.FEvaluator` (same constructor, ``run``/``done``/
    ``pending_expr``/``snapshot``/``restore``, same ``kind`` so snapshots
    restore across engines).

    With ``ft=machine`` it runs as an F engine of an
    :class:`~repro.ft.machine.FTMachine` (sharing its budget and step
    count): :meth:`run` returns the boundary it stops at, and
    :meth:`feed` continues with the crossing's value.
    """

    kind = "f"

    def __init__(self, expr: FExpr, fuel: Optional[int] = None,
                 heap: Optional[int] = None, depth: Optional[int] = None,
                 budget: Optional[Budget] = None, ft=None):
        self._ft = ft
        self.budget = ft.budget if ft is not None \
            else Budget.of(fuel, heap, depth, budget)
        self._mode = _EVAL
        self._focus: FExpr = expr
        self._env: Dict[str, FExpr] = _EMPTY_ENV
        self._frames: List[list] = []
        self._value: Optional[FExpr] = None

    @property
    def done(self) -> bool:
        return self._value is not None

    def run(self, fuel: Optional[int] = None) -> FExpr:
        """Drive the machine to a (reified, plain-term) value or a
        governor trip; ``fuel`` refills the budget for this slice."""
        if fuel is not None:
            self.budget.refill(fuel)
        if self._value is not None:
            return self._value
        if self._ft is None:
            with OBS.span("f.evaluate", "f"):
                return self._drive()
        return self._drive()

    def feed(self, value: FExpr) -> None:
        """Continue after a boundary crossing with its (plain) value."""
        mv = _try_value(value, _EMPTY_ENV)
        if mv is None:
            raise MachineError(
                f"boundary produced a non-value {type(value).__name__}")
        self._mode, self._focus = _APPLY, mv

    # -- the machine loop ------------------------------------------------

    def _drive(self) -> FExpr:
        budget = self.budget
        ft = self._ft
        consume = budget.consume_fuel
        check_depth = budget.check_depth
        obs_on = OBS.enabled
        metrics_inc = OBS.metrics.inc
        prof = PROFILER if PROFILER.enabled else None
        # Under an FT machine the driver owns the profiler barrier.
        prof_base = prof.enter_engine() \
            if prof is not None and ft is None else None
        mode, cur, env, frames = (self._mode, self._focus, self._env,
                                  self._frames)
        try:
            while True:
                if mode == _APPLY:
                    # ``cur`` is a machine value for the innermost frame.
                    if not frames:
                        value = _reify(cur)
                        self._value = value
                        cur = value
                        return value
                    f = frames[-1]
                    tag = f[0]
                    if tag == _K_APP_A:
                        fv, done, args, idx, fenv = (f[1], f[2], f[3],
                                                     f[4], f[5])
                        scanned = [cur]
                        j = idx + 1
                        n = len(args)
                        while j < n:
                            av = _try_value(args[j], fenv)
                            if av is None:
                                break
                            scanned.append(av)
                            j += 1
                        if j < n:
                            done.extend(scanned)
                            f[4] = j
                            mode, cur, env = _EVAL, args[j], fenv
                            continue
                        # Beta: all arguments are values.
                        argvals = done + scanned
                        if fv.__class__ is not Closure:
                            if isinstance(fv, Lam):
                                fv = Closure(fv, _EMPTY_ENV)
                            else:
                                raise MachineError(
                                    "application of a non-lambda value")
                        lam = fv.lam
                        params = lam.params
                        if len(params) != len(argvals):
                            raise MachineError(
                                "application arity mismatch at runtime")
                        consume()
                        if ft is not None:
                            ft.steps += 1
                        if obs_on:
                            metrics_inc("f.machine.steps")
                        frames.pop()
                        if prof is not None:
                            prof.beta(lam, len(frames))
                        env = dict(fv.env)
                        # Bind in reverse so duplicate parameter names
                        # resolve like sequential substitution (first
                        # parameter wins).
                        for (x, _), a in zip(reversed(params),
                                             reversed(argvals)):
                            env[x] = a
                        mode, cur = _EVAL, lam.body
                        continue
                    if tag == _K_BINOP_R:
                        lv = f[2]
                        if lv.__class__ is not IntE or \
                                cur.__class__ is not IntE:
                            raise MachineError(
                                f"primitive {f[1]!r} applied to "
                                "non-integers")
                        consume()
                        if ft is not None:
                            ft.steps += 1
                        if obs_on:
                            metrics_inc("f.machine.steps")
                        frames.pop()
                        if prof is not None:
                            prof.step(len(frames))
                        cur = IntE(apply_binop(f[1], lv.value, cur.value))
                        continue
                    if tag == _K_BINOP_L:
                        rv = _try_value(f[2], f[3])
                        if rv is None:
                            op = f[1]
                            right, fenv = f[2], f[3]
                            f[:] = [_K_BINOP_R, op, cur]
                            mode, cur, env = _EVAL, right, fenv
                            continue
                        if cur.__class__ is not IntE or \
                                rv.__class__ is not IntE:
                            raise MachineError(
                                f"primitive {f[1]!r} applied to "
                                "non-integers")
                        consume()
                        if ft is not None:
                            ft.steps += 1
                        if obs_on:
                            metrics_inc("f.machine.steps")
                        frames.pop()
                        if prof is not None:
                            prof.step(len(frames))
                        cur = IntE(apply_binop(f[1], cur.value, rv.value))
                        continue
                    if tag == _K_IF0:
                        if cur.__class__ is not IntE:
                            raise MachineError(
                                "if0 scrutinee is not an integer")
                        consume()
                        if ft is not None:
                            ft.steps += 1
                        if obs_on:
                            metrics_inc("f.machine.steps")
                        branch = f[1] if cur.value == 0 else f[2]
                        fenv = f[3]
                        frames.pop()
                        if prof is not None:
                            prof.step(len(frames))
                        mode, cur, env = _EVAL, branch, fenv
                        continue
                    if tag == _K_APP_F:
                        args, fenv = f[1], f[2]
                        fv = cur
                        scanned: list = []
                        j = 0
                        n = len(args)
                        while j < n:
                            av = _try_value(args[j], fenv)
                            if av is None:
                                break
                            scanned.append(av)
                            j += 1
                        if j < n:
                            f[:] = [_K_APP_A, fv, scanned, args, j, fenv]
                            mode, cur, env = _EVAL, args[j], fenv
                            continue
                        if fv.__class__ is not Closure:
                            if isinstance(fv, Lam):
                                fv = Closure(fv, _EMPTY_ENV)
                            else:
                                raise MachineError(
                                    "application of a non-lambda value")
                        lam = fv.lam
                        params = lam.params
                        if len(params) != len(scanned):
                            raise MachineError(
                                "application arity mismatch at runtime")
                        consume()
                        if ft is not None:
                            ft.steps += 1
                        if obs_on:
                            metrics_inc("f.machine.steps")
                        frames.pop()
                        if prof is not None:
                            prof.beta(lam, len(frames))
                        env = dict(fv.env)
                        for (x, _), a in zip(reversed(params),
                                             reversed(scanned)):
                            env[x] = a
                        mode, cur = _EVAL, lam.body
                        continue
                    if tag == _K_FOLD:
                        ann = f[1]
                        frames.pop()
                        cur = Fold(ann, cur)
                        continue
                    if tag == _K_UNFOLD:
                        if cur.__class__ is not Fold:
                            raise MachineError("unfold of a non-fold value")
                        consume()
                        if ft is not None:
                            ft.steps += 1
                        if obs_on:
                            metrics_inc("f.machine.steps")
                        frames.pop()
                        if prof is not None:
                            prof.step(len(frames))
                        cur = cur.body
                        continue
                    if tag == _K_TUPLE:
                        done, items, idx, fenv = f[1], f[2], f[3], f[4]
                        scanned = [cur]
                        j = idx + 1
                        n = len(items)
                        while j < n:
                            iv = _try_value(items[j], fenv)
                            if iv is None:
                                break
                            scanned.append(iv)
                            j += 1
                        if j < n:
                            done.extend(scanned)
                            f[3] = j
                            mode, cur, env = _EVAL, items[j], fenv
                            continue
                        frames.pop()
                        cur = TupleE(tuple(done + scanned))
                        continue
                    if tag == _K_PROJ:
                        if cur.__class__ is not TupleE:
                            raise MachineError(
                                "projection from a non-tuple value")
                        index = f[1]
                        if not 0 <= index < len(cur.items):
                            raise MachineError(
                                f"projection index {index} out of range "
                                "at runtime")
                        consume()
                        if ft is not None:
                            ft.steps += 1
                        if obs_on:
                            metrics_inc("f.machine.steps")
                        frames.pop()
                        if prof is not None:
                            prof.step(len(frames))
                        cur = cur.items[index]
                        continue
                    raise MachineError(f"corrupt CEK frame tag {tag!r}")

                # -- _EVAL: ``cur`` is an expression under ``env`` -------
                v = _try_value(cur, env)
                if v is not None:
                    mode, cur = _APPLY, v
                    continue
                cls = cur.__class__
                if cls is App:
                    fn, args = cur.fn, cur.args
                    fv = _try_value(fn, env)
                    if fv is None:
                        frames.append([_K_APP_F, args, env])
                        check_depth(len(frames))
                        cur = fn
                        continue
                    scanned = []
                    j = 0
                    n = len(args)
                    while j < n:
                        av = _try_value(args[j], env)
                        if av is None:
                            break
                        scanned.append(av)
                        j += 1
                    if j < n:
                        frames.append([_K_APP_A, fv, scanned, args, j, env])
                        check_depth(len(frames))
                        cur = args[j]
                        continue
                    if fv.__class__ is not Closure:
                        if isinstance(fv, Lam):
                            fv = Closure(fv, _EMPTY_ENV)
                        else:
                            raise MachineError(
                                "application of a non-lambda value")
                    lam = fv.lam
                    params = lam.params
                    if len(params) != len(scanned):
                        raise MachineError(
                            "application arity mismatch at runtime")
                    consume()
                    if ft is not None:
                        ft.steps += 1
                    if obs_on:
                        metrics_inc("f.machine.steps")
                    if prof is not None:
                        prof.beta(lam, len(frames))
                    env = dict(fv.env)
                    for (x, _), a in zip(reversed(params),
                                         reversed(scanned)):
                        env[x] = a
                    cur = lam.body
                    continue
                if cls is BinOp:
                    lv = _try_value(cur.left, env)
                    if lv is None:
                        frames.append([_K_BINOP_L, cur.op, cur.right, env])
                        check_depth(len(frames))
                        cur = cur.left
                        continue
                    rv = _try_value(cur.right, env)
                    if rv is None:
                        frames.append([_K_BINOP_R, cur.op, lv])
                        check_depth(len(frames))
                        cur = cur.right
                        continue
                    if lv.__class__ is not IntE or rv.__class__ is not IntE:
                        raise MachineError(
                            f"primitive {cur.op!r} applied to non-integers")
                    consume()
                    if ft is not None:
                        ft.steps += 1
                    if obs_on:
                        metrics_inc("f.machine.steps")
                    if prof is not None:
                        prof.step(len(frames))
                    cur = IntE(apply_binop(cur.op, lv.value, rv.value))
                    mode = _APPLY
                    continue
                if cls is If0:
                    cv = _try_value(cur.cond, env)
                    if cv is None:
                        frames.append([_K_IF0, cur.then, cur.els, env])
                        check_depth(len(frames))
                        cur = cur.cond
                        continue
                    if cv.__class__ is not IntE:
                        raise MachineError("if0 scrutinee is not an integer")
                    consume()
                    if ft is not None:
                        ft.steps += 1
                    if obs_on:
                        metrics_inc("f.machine.steps")
                    if prof is not None:
                        prof.step(len(frames))
                    cur = cur.then if cv.value == 0 else cur.els
                    continue
                if cls is Unfold:
                    bv = _try_value(cur.body, env)
                    if bv is None:
                        frames.append([_K_UNFOLD])
                        check_depth(len(frames))
                        cur = cur.body
                        continue
                    if bv.__class__ is not Fold:
                        raise MachineError("unfold of a non-fold value")
                    consume()
                    if ft is not None:
                        ft.steps += 1
                    if obs_on:
                        metrics_inc("f.machine.steps")
                    if prof is not None:
                        prof.step(len(frames))
                    mode, cur = _APPLY, bv.body
                    continue
                if cls is Proj:
                    bv = _try_value(cur.body, env)
                    if bv is None:
                        frames.append([_K_PROJ, cur.index])
                        check_depth(len(frames))
                        cur = cur.body
                        continue
                    if bv.__class__ is not TupleE:
                        raise MachineError("projection from a non-tuple value")
                    if not 0 <= cur.index < len(bv.items):
                        raise MachineError(
                            f"projection index {cur.index} out of range "
                            "at runtime")
                    consume()
                    if ft is not None:
                        ft.steps += 1
                    if obs_on:
                        metrics_inc("f.machine.steps")
                    if prof is not None:
                        prof.step(len(frames))
                    mode, cur = _APPLY, bv.items[cur.index]
                    continue
                if cls is Fold:
                    # Body is not immediate (else _try_value caught it).
                    frames.append([_K_FOLD, cur.ann])
                    check_depth(len(frames))
                    cur = cur.body
                    continue
                if cls is TupleE:
                    items = cur.items
                    done: list = []
                    j = 0
                    n = len(items)
                    while j < n:
                        iv = _try_value(items[j], env)
                        if iv is None:
                            break
                        done.append(iv)
                        j += 1
                    # j < n always: an all-immediate tuple is a value.
                    frames.append([_K_TUPLE, done, items, j, env])
                    check_depth(len(frames))
                    cur = items[j]
                    continue
                if ft is not None:
                    if cls is Boundary:
                        # Charged like the substitution loop: one unit on
                        # entry; the driver runs the component and feeds
                        # its value in where the hole now stands.
                        reified = _reify_open(cur, env)
                        consume()
                        mode, cur = _APPLY, _HOLE
                        return reified
                    raise MachineError(
                        f"cannot step {type(cur).__name__}: not a value and "
                        "not a reducible FT form (free variable?)")
                raise MachineError(
                    f"cannot step {type(cur).__name__}: not a pure F redex "
                    "(use repro.ft.machine for mixed programs)")
        except RecursionError:
            raise budget.depth_error(len(frames)) from None
        finally:
            # Keep the suspended state live for snapshot/re-entry even
            # when a governor just tripped: contraction sites mutate the
            # frame stack only *after* a successful fuel charge, so the
            # persisted state always re-enters at the pre-charge point.
            if prof_base is not None:
                prof.exit_engine(prof_base)
            self._mode, self._focus, self._env, self._frames = (
                mode, cur, env, frames)

    # -- checkpointing ---------------------------------------------------

    def pending_expr(self) -> FExpr:
        """The whole term under evaluation as a plain (closure-free) F
        term: focus reified, environment substituted, frames folded back.
        Structurally identical to the substitution engine's pending term
        at the same step."""
        if self._mode == _EVAL:
            inner = _reify_open(self._focus, self._env)
        else:
            inner = _reify(self._focus)
        return _plug(inner, self._frames)

    def snapshot(self) -> MachineSnapshot:
        return MachineSnapshot.capture(self.kind, {
            "expr": self.pending_expr(),
            "budget": self.budget,
            "value": self._value,
        })

    @classmethod
    def restore(cls, snapshot: MachineSnapshot) -> "CEKEvaluator":
        state = snapshot.state()
        ev = cls(state["expr"], budget=state["budget"])
        ev._value = state.get("value")
        return ev


def cek_evaluate(e: FExpr, fuel: Optional[int] = None, *,
                 heap: Optional[int] = None, depth: Optional[int] = None,
                 budget: Optional[Budget] = None) -> FExpr:
    """Run ``e`` to a value on the CEK engine (standalone form)."""
    return CEKEvaluator(e, fuel=fuel, heap=heap, depth=depth,
                        budget=budget).run()
