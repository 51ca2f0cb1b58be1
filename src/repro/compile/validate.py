"""Translation validation: never trust the compiler, check each artifact.

Rather than proving the code generator correct once, every compiled
component is checked *per compilation* (Pnueli-style translation
validation) on three independent axes:

1. **Typechecking** -- the wrapped replacement term is run through the
   full FT/TAL typechecker (:func:`repro.ft.typecheck.check_ft_expr`)
   and must come back with exactly the source term's F type.  This is
   the paper's static guarantee: a well-typed T component embedded via
   boundaries cannot break F's type safety.
2. **Differential execution** -- for function compilations, the source
   lambda (run by the CEK engine) and the compiled component are applied
   to a deterministic corpus of generated argument vectors and must
   produce the same observation (same value, or the same
   divergence/stuckness verdict) under the same fuel.
3. **Bounded equivalence** -- both terms are plugged into the contexts
   of :func:`repro.equiv.contexts.contexts_for` (the paper's
   contextual-equivalence observer: F application contexts, T
   application contexts, eta-expansions), bounded by fuel.

Compiled code pays a constant-factor fuel overhead over the CEK source,
plus a boundary round trip per call to a closure of an interface type
(those still materialize through an ``import``; see
``docs/performance.md``), so a shared fuel bound would flag correct but
slower artifacts as divergent.  When exactly one side exhausts its
budget, the check retries that side with ``slack``-times the fuel
before calling the pair a counterexample: a budget artifact then halts
with the same value, a genuine divergence keeps diverging.

A failure on any axis quarantines the source lambda through the PR 3
safety net (:data:`repro.resilience.safety_net.QUARANTINE`), so the JIT
will refuse to install the bad artifact on later sightings, and raises
nothing: callers branch on :attr:`ValidationReport.ok`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import FunTALError
from repro.obs.events import OBS
from repro.equiv.checker import Counterexample, EquivalenceReport
from repro.equiv.contexts import contexts_for
from repro.equiv.generators import values_of
from repro.equiv.observation import DIVERGED, HALTED, Observation, observe
from repro.f.syntax import (
    App, FArrow, FExpr, FInt, FType, ftype_equal, IntE, Lam,
)
from repro.ft.typecheck import check_ft_expr
from repro.resilience.safety_net import QUARANTINE, Quarantine
from repro.compile.pipeline import CompilationResult, compile_term

__all__ = ["ValidationReport", "validate_compilation"]

@dataclass
class ValidationReport:
    """What translation validation observed for one compilation."""

    ok: bool = True
    typechecked: bool = False
    trials: int = 0                      # differential argument vectors
    equiv: Optional[EquivalenceReport] = None
    failure: Optional[str] = None        # first failing axis, pretty form
    quarantined: bool = False
    disagreements: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "typechecked": self.typechecked,
            "trials": self.trials,
            "equivalent": None if self.equiv is None else self.equiv.equivalent,
            "equiv_trials": 0 if self.equiv is None else self.equiv.trials,
            "failure": self.failure,
            "quarantined": self.quarantined,
        }

    def __str__(self) -> str:
        if self.ok:
            extra = ("" if self.equiv is None
                     else f", {self.equiv.trials} contexts")
            return (f"validated (typechecked, "
                    f"{self.trials} differential trials{extra})")
        return f"VALIDATION FAILED: {self.failure}"


#: Integer arguments for differential runs.  Small in magnitude: a
#: recursive source function costs a few CEK steps per level and its
#: compiled image about 13x that (78 fuel per level for Fig 17's
#: ``fact_f``), so the arguments keep both sides of every trial well
#: inside the default fuel bound.
_DIFF_INT_CORPUS = (0, 1, 2, 3, 5, 7, -1, -3)


def _diff_values(ty: FType, rng: random.Random) -> List[FExpr]:
    if isinstance(ty, FInt):
        return [IntE(n) for n in _DIFF_INT_CORPUS]
    return list(values_of(ty, rng, budget=2))


def _argument_vectors(ty: FArrow, rng: random.Random,
                      trials: int) -> List[Tuple[FExpr, ...]]:
    """Up to ``trials`` deterministic argument tuples for ``ty``."""
    pools = [_diff_values(t, rng) for t in ty.params]
    if any(not pool for pool in pools):
        return []
    count = min(trials, max(len(p) for p in pools))
    return [tuple(pool[i % len(pool)] for pool in pools)
            for i in range(count)]


def _agree(prog_src: FExpr, prog_cmp: FExpr, fuel: int,
           slack: int) -> Tuple[bool, Observation, Observation]:
    """Observe both programs, retrying a one-sided budget exhaustion
    with ``slack``-times the fuel (see module docstring)."""
    obs_src = observe(prog_src, fuel=fuel)
    obs_cmp = observe(prog_cmp, fuel=fuel)
    if obs_src.agrees_with(obs_cmp) or slack <= 1:
        return obs_src.agrees_with(obs_cmp), obs_src, obs_cmp
    if obs_src.kind == HALTED and obs_cmp.kind == DIVERGED:
        obs_cmp = observe(prog_cmp, fuel=fuel * slack)
    elif obs_cmp.kind == HALTED and obs_src.kind == DIVERGED:
        obs_src = observe(prog_src, fuel=fuel * slack)
    return obs_src.agrees_with(obs_cmp), obs_src, obs_cmp


def _fail(report: ValidationReport, source: FExpr, reason: str,
          quarantine: Quarantine) -> ValidationReport:
    report.ok = False
    report.failure = reason
    if isinstance(source, Lam):
        quarantine.add(source, f"translation validation: {reason}")
        report.quarantined = True
    if OBS.enabled:
        OBS.metrics.inc("compile.validate.fail")
    return report


def validate_compilation(
        target: Union[CompilationResult, FExpr],
        gamma: Optional[Dict[str, FType]] = None, *,
        trials: int = 12,
        fuel: int = 30_000,
        seed: int = 0,
        slack: int = 20,
        equiv_budget: int = 2,
        max_contexts: Optional[int] = 6,
        quarantine: Optional[Quarantine] = None) -> ValidationReport:
    """Validate one compilation (compiling ``target`` first if needed).

    Returns a :class:`ValidationReport`; never raises on a *validation*
    failure (compilation errors still propagate).  On failure the source
    lambda is quarantined in ``quarantine`` (default: the global
    :data:`~repro.resilience.safety_net.QUARANTINE`).
    """
    result = (target if isinstance(target, CompilationResult)
              else compile_term(target, gamma))
    q = quarantine if quarantine is not None else QUARANTINE
    report = ValidationReport()
    source, wrapped, ty = result.source, result.wrapped, result.ty

    with OBS.span("compile.validate", "compile"):
        # Axis 1: the wrapped replacement typechecks at the source type.
        full_gamma = dict(gamma or {})
        full_gamma.update(dict(result.free))
        try:
            actual, _ = check_ft_expr(
                wrapped, gamma=full_gamma if full_gamma else None)
        except FunTALError as err:
            return _fail(report, source,
                         f"compiled term does not typecheck: {err}", q)
        if not ftype_equal(actual, ty):
            return _fail(report, source,
                         f"compiled term has type {actual}, "
                         f"source has {ty}", q)
        report.typechecked = True
        if OBS.enabled:
            OBS.metrics.inc("compile.validate")

        if result.free:
            # Open compilations cannot be executed; the static axis is
            # all we can check until the caller closes them.
            return report

        # Axis 2: differential execution against the CEK engine.
        rng = random.Random(seed)
        whole = None   # axis 2's verdict on the bare (source, wrapped)
        if isinstance(ty, FArrow) and isinstance(source, Lam):
            for args in _argument_vectors(ty, rng, trials):
                ok, obs_src, obs_cmp = _agree(
                    App(source, args), App(wrapped, args), fuel, slack)
                report.trials += 1
                if not ok:
                    detail = (f"on arguments {args}: source {obs_src}, "
                              f"compiled {obs_cmp}")
                    report.disagreements.append(detail)
                    return _fail(report, source,
                                 f"differential disagreement {detail}", q)
        else:
            ok, obs_src, obs_cmp = whole = _agree(
                source, wrapped, fuel, slack)
            report.trials += 1
            if not ok:
                detail = f"source {obs_src}, compiled {obs_cmp}"
                report.disagreements.append(detail)
                return _fail(report, source,
                             f"differential disagreement {detail}", q)

        # Axis 3: bounded contextual equivalence (F and T observers),
        # with the same slack policy applied per context.
        contexts = contexts_for(ty, random.Random(seed), equiv_budget)
        if max_contexts is not None:
            contexts = contexts[:max_contexts]
        equiv = EquivalenceReport(True, 0, fuel)
        for name, plug in contexts:
            plugged_src, plugged_cmp = plug(source), plug(wrapped)
            if (whole is not None and plugged_src is source
                    and plugged_cmp is wrapped):
                # The identity context observes the pair axis 2 did.
                ok, obs_src, obs_cmp = whole
            else:
                ok, obs_src, obs_cmp = _agree(
                    plugged_src, plugged_cmp, fuel, slack)
            equiv.trials += 1
            if not ok:
                equiv.equivalent = False
                equiv.counterexample = Counterexample(
                    name, obs_src, obs_cmp)
                break
            equiv.agreements.append((name, obs_src))
        report.equiv = equiv
        if not equiv.equivalent:
            return _fail(report, source,
                         f"contextual counterexample: "
                         f"{equiv.counterexample}", q)

    return report
