"""Whole-program observations: the checker's ``O`` relation.

The paper's observation relation ``O`` says two configurations are related
when, with memories related at the current world, either both terminate or
both are still running after ``W.k`` steps.  Executable version: run each
program under a fuel budget and classify the outcome --

* ``halted`` with a canonicalized first-order value,
* ``diverged`` (fuel exhausted -- "still running after k steps"),
* ``stuck`` (a :class:`~repro.errors.MachineError`; never happens for
  well-typed programs, but the checker must classify it to be usable on
  candidate-buggy code).

Function values are canonicalized to an opaque token: contexts, not direct
inspection, are how functions are observed (biorthogonality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.errors import FunTALError, MachineError, ResourceExhausted
from repro.f.syntax import FExpr, Fold, IntE, is_value, Lam, TupleE, UnitE
from repro.ft.machine import evaluate_ft

__all__ = ["Observation", "observe", "canonical_value"]

HALTED = "halted"
DIVERGED = "diverged"
STUCK = "stuck"


def canonical_value(v: FExpr) -> object:
    """A hashable, comparable image of an F value.

    Integers and unit map to themselves, tuples map pointwise, ``fold``
    is transparent (iso-recursion carries no runtime information), and
    functions map to the opaque token ``"<fn>"``.
    """
    if isinstance(v, IntE):
        return v.value
    if isinstance(v, UnitE):
        return ()
    if isinstance(v, TupleE):
        return tuple(canonical_value(x) for x in v.items)
    if isinstance(v, Fold):
        return ("fold", canonical_value(v.body))
    if isinstance(v, Lam):
        return "<fn>"
    from repro.ft.lump import LumpVal

    if isinstance(v, LumpVal):
        return "<lump>"
    raise MachineError(f"cannot canonicalize non-value {v}")


@dataclass(frozen=True)
class Observation:
    """The outcome of running one whole program."""

    kind: str
    value: Optional[object] = None
    detail: str = ""

    def __str__(self) -> str:
        if self.kind == HALTED:
            return f"halted({self.value!r})"
        return self.kind if not self.detail else f"{self.kind}: {self.detail}"

    def agrees_with(self, other: "Observation") -> bool:
        """The pointwise ``O`` check: same kind, and same value if halted."""
        if self.kind != other.kind:
            return False
        if self.kind == HALTED:
            return self.value == other.value
        return True


def observe(program: FExpr, fuel: int = 50_000) -> Observation:
    """Run a closed FT program to an observation.

    Observations run T on ``ref``, the paper's typed semantics, whatever
    the default engine: equivalence checking and translation validation
    compare against the oracle, not against the tier under test."""
    try:
        value, _ = evaluate_ft(program, fuel=fuel, tal_engine="ref")
    except ResourceExhausted:
        # Any tripped governor (fuel, heap cells, depth) reads as
        # divergence: the bounded observer could not tell the programs
        # apart within its budget.
        return Observation(DIVERGED)
    except FunTALError as err:
        return Observation(STUCK, detail=str(err))
    return Observation(HALTED, canonical_value(value))
