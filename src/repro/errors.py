"""Shared error hierarchy for the FunTAL reproduction.

Every user-facing failure in the library is an instance of :class:`FunTALError`
so that callers (CLI, tests, the equivalence checker) can catch one root type.
The main judgment families each get their own subclass:

* :class:`FTTypeError` -- a typing judgment failed (F, T, or FT).
* :class:`MachineError` -- the abstract machine got stuck.  A *well-typed*
  program never raises this (type safety); the machine raises it eagerly on
  ill-formed states so that the property tests can detect safety violations.
* :class:`ParseError` -- the surface-syntax parser rejected its input.
* :class:`ResourceExhausted` -- a resource governor tripped.  This is the
  structured family the resilience layer (:mod:`repro.resilience`) raises
  when a :class:`~repro.resilience.budget.Budget` ceiling is hit: *fuel*
  (:class:`FuelExhausted`), *heap cells* (:class:`HeapExhausted`), or
  *evaluation depth* (:class:`StackDepthExhausted`).  None of these are
  errors in the paper's semantics -- they are how the bounded machines
  observe (potential) divergence and runaway allocation without dying.
* :class:`SnapshotError` -- a machine checkpoint could not be captured or
  restored (unpicklable state, hash mismatch, truncation).
* :class:`LinkError` -- separately compiled components could not be linked
  (duplicate exports, unresolved/cyclic imports, interface mismatches);
  see :mod:`repro.link`.
* :class:`InjectedFault` -- a deterministic chaos fault fired at a named
  seam (:mod:`repro.resilience.chaos`).  Tests use it to assert that every
  degradation path is handled; it must never escape as an unhandled
  non-FunTAL exception.
* :class:`OverloadError` -- the serving layer declined work it could not
  take on right now.  Its two subclasses carry distinct recovery advice:
  :class:`QueueFull` (the bounded pool queue is at capacity -- back off
  for ``retry_after_ms`` and resubmit) and :class:`PoolClosed` (the pool
  is shutting down -- resubmission to this pool is pointless).  The
  serve layer maps them to distinct wire statuses (``overloaded`` vs
  ``rejected``) so clients handle transient and terminal refusals
  differently.
"""

from __future__ import annotations

from typing import Optional


class FunTALError(Exception):
    """Root of the library's error hierarchy."""


class FTTypeError(FunTALError):
    """A typing judgment of F, T, or FT failed.

    ``judgment`` names the judgment that failed (e.g. ``"tal.instruction"``)
    and ``subject`` carries a pretty-printed copy of the offending term, both
    of which are folded into ``str(err)``.
    """

    def __init__(self, message: str, *, judgment: str = "", subject: str = ""):
        self.judgment = judgment
        self.subject = subject
        parts = [message]
        if judgment:
            parts.append(f"[judgment: {judgment}]")
        if subject:
            parts.append(f"[subject: {subject}]")
        super().__init__(" ".join(parts))


class CompileError(FTTypeError):
    """The expression falls outside the compilable fragment.

    Raised by the F-to-T compiler (:mod:`repro.compile`) for terms it
    does not cover.
    """


class UsageError(FunTALError):
    """A tool was handed what it does not take (a T component to
    ``compile``): the request, not the program, is at fault."""


class ValidationFailed(FunTALError):
    """Translation validation refuted a compilation."""


class MachineError(FunTALError):
    """The abstract machine reached a stuck state.

    Type safety (progress + preservation) guarantees this is unreachable from
    well-typed programs; it exists so that the machine fails loudly instead of
    silently corrupting memory when driven with ill-typed inputs.
    """


class ResourceExhausted(FunTALError):
    """A bounded evaluation hit one of its resource ceilings.

    ``resource`` names the governed dimension (``"fuel"``, ``"heap"``,
    ``"depth"``), ``limit`` is the configured ceiling and ``spent`` how much
    had been consumed when the governor tripped.  Catching this one type
    covers every budget dimension; the subclasses exist so callers that care
    (the CLI's exit codes, the equivalence checker's divergence verdict) can
    be precise.
    """

    resource = "resource"

    def __init__(self, limit: int, spent: Optional[int] = None,
                 message: Optional[str] = None):
        self.limit = limit
        self.spent = limit if spent is None else spent
        super().__init__(
            message or f"{self.resource} budget exhausted: "
                       f"spent {self.spent} of {limit}")


class FuelExhausted(ResourceExhausted):
    """A bounded evaluation ran out of fuel before producing a value.

    This is *not* an error in the paper's semantics -- it is how the
    reproduction observes (potential) divergence, e.g. for the negative-input
    case of the factorial example (Fig 17).
    """

    resource = "fuel"

    def __init__(self, fuel: int, spent: Optional[int] = None):
        self.fuel = fuel
        super().__init__(
            fuel, spent,
            f"evaluation did not terminate within {fuel} steps")


class HeapExhausted(ResourceExhausted):
    """The machine's heap-cell budget is spent (runaway allocation)."""

    resource = "heap"


class StackDepthExhausted(ResourceExhausted):
    """Evaluation-context / machine-stack depth exceeded its ceiling.

    Also raised when Python's own recursion limit is hit inside the
    evaluator (deep substitutions, pathological value checks): the
    interpreter crash is caught at the machine boundary and surfaced as
    this structured verdict instead of a raw :class:`RecursionError`.
    """

    resource = "depth"


class SnapshotError(FunTALError):
    """A machine checkpoint could not be captured, encoded, or restored."""


class InjectedFault(FunTALError):
    """A chaos fault fired at a named seam (deterministic, seeded).

    ``seam`` names the injection point, e.g. ``"heap.alloc"`` or
    ``"jit.compile"`` -- see :data:`repro.resilience.chaos.SEAMS`.
    """

    def __init__(self, seam: str, detail: str = ""):
        self.seam = seam
        extra = f": {detail}" if detail else ""
        super().__init__(f"injected fault at seam {seam!r}{extra}")


class LinkError(FunTALError):
    """Separate compilation could not be combined into a program.

    Raised by :mod:`repro.link` for every structured linking failure:
    duplicate exports, unresolved or cyclic imports, and import/export
    interface mismatches.  ``stage`` names the link phase that failed
    (``"resolve"``, ``"interface"``, ``"exports"``, ``"cycle"``,
    ``"manifest"``) and ``subject`` the offending component or import
    name, so callers (CLI, serve) can report which edge of the component
    graph broke without parsing the message.
    """

    def __init__(self, message: str, *, stage: str = "",
                 subject: str = ""):
        self.stage = stage
        self.subject = subject
        parts = [message]
        if stage:
            parts.append(f"[stage: {stage}]")
        if subject:
            parts.append(f"[subject: {subject}]")
        super().__init__(" ".join(parts))


class OverloadError(FunTALError):
    """The serving layer refused work (admission control).

    Catch this one type to cover every refusal; the subclasses tell a
    caller whether backing off helps.
    """


class QueueFull(OverloadError):
    """The pool's bounded pending queue is at capacity (``block=False``).

    ``retry_after_ms`` is the pool's load-shedding advice: an estimate of
    how long the queue needs to drain one slot, suitable for a jittered
    client backoff.  Zero means the pool could not estimate.
    """

    def __init__(self, message: str, *, retry_after_ms: int = 0):
        self.retry_after_ms = retry_after_ms
        super().__init__(message)


class PoolClosed(OverloadError):
    """submit() after close(); resubmission to this pool cannot succeed."""


class ParseError(FunTALError):
    """The surface parser rejected its input."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        where = f" at {line}:{column}" if line else ""
        super().__init__(f"{message}{where}")
