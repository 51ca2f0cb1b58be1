"""JIT safety net: differential guard + quarantine circuit breaker.

The JIT (:func:`repro.compile.pipeline.jit_rewrite`) replaces eligible F
lambdas with compiled T components behind boundaries.  Its correctness
obligation is the paper's ``E[e_S] ~ E[FT e_T]``; this module is the *runtime*
enforcement of that obligation: if anything faults while compiling or
while running jitted code -- a compiler bug, a miscompile tripping the
machine's stuck-state checks, an injected chaos fault -- the safety net

1. falls back to the interpreter and returns *its* result, so callers
   never observe a jit-induced failure or wrong answer;
2. quarantines the offending source lambda
   (:class:`repro.caching.Quarantine`, keyed on the frozen, hashable
   source :class:`Lam` exactly like the compile cache), so it is never
   handed to the compiler again in this process.

Resource exhaustion (fuel/heap/depth) is *not* treated as a JIT fault:
it is a legitimate verdict of bounded evaluation, so it propagates to the
caller unchanged.

Quarantine statistics surface in ``funtal stats`` and in the
``jit.quarantine.*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.caching import Quarantine
from repro.errors import ResourceExhausted
from repro.f.syntax import FExpr, Lam
from repro.ft.machine import FTMachine, evaluate_ft
from repro.compile.pipeline import compile_term, jit_rewrite
from repro.obs.events import OBS
from repro.resilience.budget import Budget
from repro.resilience.chaos import probe
from repro.tal.machine import resolve_tal_engine

__all__ = ["Quarantine", "QUARANTINE", "SafetyNetReport",
           "jit_rewrite_guarded", "run_guarded"]


#: The process-wide quarantine, shared by every guarded run (and by the
#: serve executor's workers, each in its own process).
QUARANTINE = Quarantine()


@dataclass
class SafetyNetReport:
    """What the guard did for one program."""

    jitted: int = 0                  # lambdas compiled into this program
    skipped: int = 0                 # lambdas left interpreted (quarantined)
    fell_back: bool = False          # a fault forced an interpreter re-run
    fault: Optional[str] = None      # pretty form of the triggering fault
    quarantined: Tuple[str, ...] = ()  # lambdas quarantined by this run

    def to_json(self) -> Dict[str, object]:
        return {"jitted": self.jitted, "skipped": self.skipped,
                "fell_back": self.fell_back, "fault": self.fault,
                "quarantined": list(self.quarantined)}


def jit_rewrite_guarded(
        e: FExpr, quarantine: Optional[Quarantine] = None
) -> Tuple[FExpr, List[Lam], SafetyNetReport]:
    """Like :func:`repro.compile.pipeline.jit_rewrite`, but faults degrade.

    Quarantined lambdas are skipped (left interpreted); a lambda whose
    *compilation* faults is quarantined on the spot and left interpreted.
    Returns the rewritten program, the source lambdas that were compiled
    into it (for run-time quarantining), and a report.
    """
    q = quarantine if quarantine is not None else QUARANTINE
    report = SafetyNetReport()
    compiled_sources: List[Lam] = []
    quarantined_now: List[str] = []

    def compile_guarded(lam: Lam) -> Optional[FExpr]:
        if lam in q:
            q.skip(lam)
            report.skipped += 1
            return None
        try:
            compiled = compile_term(lam).wrapped
        except ResourceExhausted:
            raise
        except Exception as exc:
            q.add(lam, f"compile fault: {exc}")
            quarantined_now.append(str(lam))
            if OBS.enabled:
                OBS.metrics.inc("resilience.jit_fallback.compile")
            return None
        compiled_sources.append(lam)
        report.jitted += 1
        return compiled

    rewritten = jit_rewrite(e, compile_guarded)
    report.quarantined = tuple(quarantined_now)
    return rewritten, compiled_sources, report


def run_guarded(e: FExpr, fuel: Optional[int] = None,
                heap: Optional[int] = None, depth: Optional[int] = None,
                trace: bool = False,
                quarantine: Optional[Quarantine] = None,
                tal_engine: Optional[str] = None
                ) -> Tuple[FExpr, FTMachine, SafetyNetReport]:
    """JIT-rewrite ``e`` and run it under the differential guard.

    On any compile- or run-time fault in jitted code the guard re-runs
    the *original* program on the interpreter, quarantines every lambda
    that was compiled into the faulting program, and returns the
    interpreter's (authoritative) result -- so the caller's observable
    outcome is identical to never having jitted at all.  Resource
    exhaustion propagates: it is a verdict, not a fault.

    ``tal_engine`` selects the T engine for the *optimistic* run (the
    default engine when ``None``); the fallback re-run always uses the
    reference engine, so a fast-tier fault can never decide the answer.
    """
    q = quarantine if quarantine is not None else QUARANTINE
    rewritten, compiled_sources, report = jit_rewrite_guarded(e, q)
    optimistic = resolve_tal_engine(tal_engine) != "ref"

    def interpret(tal: str = "ref") -> Tuple[FExpr, FTMachine]:
        return evaluate_ft(e, fuel=fuel, trace=trace,
                           budget=Budget.of(fuel, heap, depth),
                           tal_engine=tal)

    if not compiled_sources:
        try:
            if optimistic:
                probe("jit.run")
            value, machine = interpret(tal_engine)
            return value, machine, report
        except ResourceExhausted:
            raise
        except Exception as exc:
            if not optimistic:
                raise
            # Fast-tier fault on an un-jitted program: degrade to the
            # reference engine, which is authoritative.
            report.fell_back = True
            report.fault = f"{type(exc).__name__}: {exc}"
            if OBS.enabled:
                OBS.metrics.inc("resilience.jit_fallback.run")
            value, machine = interpret()
            return value, machine, report

    try:
        probe("jit.run")
        value, machine = evaluate_ft(rewritten, fuel=fuel, trace=trace,
                                     budget=Budget.of(fuel, heap, depth),
                                     tal_engine=tal_engine)
        return value, machine, report
    except ResourceExhausted:
        raise
    except Exception as exc:
        report.fell_back = True
        report.fault = f"{type(exc).__name__}: {exc}"
        quarantined_now = list(report.quarantined)
        for lam in compiled_sources:
            if lam not in q:
                q.add(lam, report.fault)
                quarantined_now.append(str(lam))
        report.quarantined = tuple(quarantined_now)
        if OBS.enabled:
            OBS.metrics.inc("resilience.jit_fallback.run")
        value, machine = interpret()
        return value, machine, report
