"""Worker-side job execution: one :class:`Job` in, one :class:`JobResult` out.

:func:`execute_job` is the single function a pool worker runs.  It is a
plain module-level function (picklable under every multiprocessing start
method) and *total*: every outcome, including typing errors, parse errors
and fuel exhaustion, is folded into a :class:`JobResult` -- only genuine
crashes (segfault-alikes, ``os._exit``) and wall-clock hangs escape, and
those are the pool's department.

Job kinds mirror the CLI subcommands:

=============  ===========================================================
``parse``      parse + pretty-print back
``typecheck``  infer the type (and out-stack); bare T components halt at
               ``options.result_type``
``run``        evaluate under ``options.fuel``; reports value/halt word,
               machine steps consumed, optionally the control-flow table
``jit``        compile an F lambda to typed assembly (``options.check``
               as in ``funtal jit``)
``compile``    whole-F compilation (``options.ir`` includes
               the closure-conversion IR, ``options.validate`` runs
               translation validation); results are content-addressed
               like every other ``ok`` result
``equiv``      bounded contextual-equivalence check of ``source`` vs
               ``options.right`` at ``options.type``
``resume``     continue a fuel-suspended machine from ``job.snapshot``
               with ``options.fuel`` as the next slice
``link``       build the multi-component manifest in ``source``
               incrementally against the on-disk artifact store
               (``options.store``), link with interface checking, and
               (unless ``options.run`` is false) evaluate the linked
               program; warm workers reuse store artifacts across jobs
=============  ===========================================================

``run`` and ``resume`` respect the unified resource governors
(``options.fuel`` / ``heap`` / ``depth``); with ``options.checkpoint``
a fuel-exhausted run comes back ``suspended`` with a resumable,
content-addressed snapshot instead of failing, and with ``options.jit``
an expression runs under the JIT safety net (faults fall back to the
interpreter and quarantine the offending lambda).

Programs come either inline (``source``) or as a built-in paper example
(``example``), resolved through the registry in
:mod:`repro.papers_examples`.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import (
    FuelExhausted, FunTALError, InjectedFault, ResourceExhausted,
)
from repro.resilience.budget import DEFAULT_FUEL
from repro.serve.protocol import Job, JobResult

__all__ = ["execute_job", "DEFAULT_FUEL"]

#: Callback type for mid-run checkpoints: the worker loop wires this to
#: the result pipe, so the pool learns how far a job got before a crash.
Progress = Callable[[Dict[str, Any]], None]


class _Suspended(Exception):
    """Internal: a checkpointing run hit its fuel ceiling; ``output``
    carries the wire snapshot for the ``suspended`` result."""

    def __init__(self, output: Dict[str, Any]):
        super().__init__("suspended")
        self.output = output


def _job_budget(job: Job):
    """The unified governor for this job's execution slice."""
    from repro.resilience.budget import Budget

    return Budget(fuel=job.options.fuel or DEFAULT_FUEL,
                  heap=job.options.heap, depth=job.options.depth)


def _suspend(machine, out_extra: Dict[str, Any]) -> "_Suspended":
    """Package a fuel-suspended machine as a ``suspended`` result."""
    snapshot = machine.snapshot()
    output = {"snapshot": snapshot.to_wire(),
              "spent": machine.budget.spent(),
              "tier": _tier_envelope(machine)}
    output.update(out_extra)
    return _Suspended(output)


def _resolve_program(job: Job) -> Tuple[Any, bool]:
    """(program node, is_component).  Inline sources go through the
    surface parser; examples come from the registry pre-built."""
    from repro.surface.parser import parse_program
    from repro.tal.syntax import Component

    if job.example is not None:
        from repro.papers_examples import resolve_example

        entry = resolve_example(job.example)
        if entry is None:
            raise FunTALError(f"unknown example {job.example!r}")
        node = entry[1]()
    else:
        node = parse_program(job.source)
    return node, isinstance(node, Component)


def _do_parse(job: Job) -> Dict[str, Any]:
    from repro.surface.pretty import pretty_component

    node, is_component = _resolve_program(job)
    pretty = pretty_component(node) if is_component else str(node)
    return {"pretty": pretty,
            "node": "component" if is_component else "expression"}


def _do_typecheck(job: Job) -> Dict[str, Any]:
    from repro.ft.typecheck import check_ft_component, check_ft_expr
    from repro.surface.parser import parse_ttype
    from repro.tal.syntax import NIL_STACK, QEnd

    node, is_component = _resolve_program(job)
    if is_component:
        result = parse_ttype(job.options.result_type)
        ty, sigma = check_ft_component(node, q=QEnd(result, NIL_STACK))
    else:
        ty, sigma = check_ft_expr(node)
    return {"type": str(ty), "stack": str(sigma),
            "node": "component" if is_component else "expression"}


def _drive_slices(job: Job, machine, first: Callable[[], Any],
                  progress: Optional[Progress],
                  extra: Dict[str, Any]) -> Tuple[Any, int]:
    """Run ``first()`` and keep resuming in ``checkpoint_every``-sized
    fuel slices until the overall ``options.fuel`` budget is spent,
    shipping a progress snapshot between slices.

    Returns ``(outcome, total fuel used)``.  Exhausting the *overall*
    budget behaves exactly like the unsliced path: ``suspended`` when
    ``options.checkpoint`` is set and the machine can suspend,
    ``fuel_exhausted`` otherwise.  ``inject_crash_at=N`` kills the
    worker right *after* the Nth snapshot is on the wire, so recovery
    tests know a checkpoint exists before the crash."""
    total = job.options.fuel or DEFAULT_FUEL
    every = max(1, int(job.options.checkpoint_every))
    used = 0
    shipped = 0
    attempt = first
    while True:
        try:
            outcome = attempt()
        except FuelExhausted:
            used += machine.budget.fuel_used
            if not machine.suspended:
                raise
            if used >= total:
                if job.options.checkpoint:
                    raise _suspend(machine, dict(extra)) from None
                raise
            if progress is not None:
                snapshot = machine.snapshot()
                progress({"snapshot": snapshot.to_wire(), "spent": used,
                          "remaining": total - used})
            shipped += 1
            if job.options.inject_crash_at is not None \
                    and shipped >= job.options.inject_crash_at:
                os._exit(23)
            nxt = min(every, total - used)
            attempt = lambda f=nxt: machine.resume(fuel=f)  # noqa: E731
            continue
        return outcome, used + machine.budget.fuel_used


def _outcome_dict(outcome) -> Dict[str, Any]:
    from repro.tal.machine import HaltedState

    if isinstance(outcome, HaltedState):
        return {"halted": str(outcome.word), "type": str(outcome.ty)}
    return {"value": str(outcome)}


def _tier_envelope(machine, compile_tier=None) -> Dict[str, Any]:
    """The effective tier of a serve answer, surfaced in every
    run/resume envelope so a degraded answer is distinguishable from a
    first-class compiled one."""
    return {"f_engine": machine.engine, "compile_tier": compile_tier,
            "tal_engine": machine.tal_engine}


def _do_run(job: Job, progress: Optional[Progress] = None) -> Dict[str, Any]:
    from repro.ft.machine import FTMachine

    node, is_component = _resolve_program(job)
    trace = job.options.trace

    if job.options.jit and not is_component and not job.options.degraded:
        from repro.link.interface import TIER_COMPILED
        from repro.resilience.safety_net import run_guarded

        value, machine, report = run_guarded(
            node, job.options.fuel or DEFAULT_FUEL,
            job.options.heap, job.options.depth, trace,
            tal_engine=job.options.tal_engine)
        out = {"value": str(value), "jit": report.to_json()}
        degraded_run = bool(getattr(report, "fell_back", False))
        if degraded_run:
            out["degraded"] = True
        out["steps"] = machine.budget.fuel_used
        compile_tier = TIER_COMPILED if report.jitted and not degraded_run \
            else None
        out["tier"] = _tier_envelope(machine, compile_tier)
        return out

    machine = FTMachine(trace=trace, budget=_job_budget(job),
                        engine=job.options.engine,
                        tal_engine=job.options.tal_engine)
    if job.options.checkpoint_every:
        total = job.options.fuel or DEFAULT_FUEL
        machine.budget.refill(min(max(1, job.options.checkpoint_every),
                                  total))
        outcome, used = _drive_slices(
            job, machine,
            (lambda: machine.run_component(node)) if is_component
            else (lambda: machine.evaluate(node)),
            progress, {})
        out = _outcome_dict(outcome)
        out["steps"] = used
    else:
        try:
            if is_component:
                halted = machine.run_component(node)
                out = {"halted": str(halted.word), "type": str(halted.ty)}
            else:
                value = machine.evaluate(node)
                out = {"value": str(value)}
        except FuelExhausted:
            if job.options.checkpoint and machine.suspended:
                raise _suspend(machine, {}) from None
            raise
        out["steps"] = machine.budget.fuel_used
    if job.options.degraded and job.options.jit:
        # Breaker-forced interpreter tier: same answer, no JIT.
        out["degraded"] = True
    out["tier"] = _tier_envelope(machine)
    if trace:
        from repro.analysis.trace import control_flow_table, format_table

        out["control_flow"] = format_table(
            control_flow_table(machine.trace), title="control flow")
    return out


def _do_resume(job: Job,
               progress: Optional[Progress] = None) -> Dict[str, Any]:
    from repro.ft.machine import FTMachine
    from repro.resilience.checkpoint import MachineSnapshot

    snapshot = MachineSnapshot.from_wire(job.snapshot)
    machine = FTMachine.restore(snapshot, trace=job.options.trace)
    if job.options.engine is not None:
        # Snapshots are engine-portable (pending records are plain
        # terms), so a resume may switch steppers explicitly.
        from repro.f.cek import resolve_engine

        machine.engine = resolve_engine(job.options.engine)
    if job.options.tal_engine is not None:
        # Same portability for the T tier: the fast engine re-lowers
        # blocks on demand from the restored heap.
        from repro.tal.machine import resolve_tal_engine

        machine.tal_engine = resolve_tal_engine(job.options.tal_engine)
    fuel = job.options.fuel or DEFAULT_FUEL
    if job.options.checkpoint_every:
        slice_fuel = min(max(1, job.options.checkpoint_every), fuel)
        outcome, used = _drive_slices(
            job, machine, lambda: machine.resume(fuel=slice_fuel),
            progress, {"resumed_from": snapshot.digest})
        out = _outcome_dict(outcome)
        out["steps"] = used
        out["resumed_from"] = snapshot.digest
        out["tier"] = _tier_envelope(machine)
        return out
    try:
        outcome = machine.resume(fuel=fuel)
    except FuelExhausted:
        if job.options.checkpoint and machine.suspended:
            raise _suspend(machine,
                           {"resumed_from": snapshot.digest}) from None
        raise
    out = _outcome_dict(outcome)
    out["steps"] = machine.budget.fuel_used
    out["resumed_from"] = snapshot.digest
    out["tier"] = _tier_envelope(machine)
    return out


def _do_jit(job: Job) -> Dict[str, Any]:
    from repro.compile import compile_function, jit_eligible
    from repro.surface.pretty import pretty_component

    node, is_component = _resolve_program(job)
    if is_component or not jit_eligible(node):
        raise FunTALError(
            "not a compilable lambda (first-order arithmetic fragment: "
            "int parameters; literals, parameters, + - *, if0)")
    result = compile_function(node)
    comp = result.component
    out: Dict[str, Any] = {"assembly": pretty_component(comp),
                           "blocks": 1 + len(comp.heap)}
    if job.options.check:
        from repro.equiv.checker import check_equivalence

        report = check_equivalence(
            node, result.wrapped, result.ty,
            fuel=job.options.fuel or 25_000)
        out["equivalent"] = report.equivalent
        out["report"] = str(report)
    return out


def _do_compile(job: Job) -> Dict[str, Any]:
    from repro.compile import compile_term, validate_compilation
    from repro.surface.pretty import pretty_component

    node, is_component = _resolve_program(job)
    if is_component:
        raise FunTALError("compile jobs take an F term, not a T component")
    result = compile_term(node)
    out: Dict[str, Any] = {
        "assembly": pretty_component(result.component),
        "blocks": result.block_count(),
        "type": str(result.ty),
    }
    if job.options.ir:
        out["ir"] = result.pretty_ir()
    if job.options.validate:
        report = validate_compilation(
            result, fuel=job.options.fuel or 30_000,
            seed=job.options.seed)
        out["validation"] = report.to_json()
        if not report.ok:
            raise FunTALError(f"translation validation failed: "
                              f"{report.failure}")
    return out


def _do_equiv(job: Job) -> Dict[str, Any]:
    from repro.equiv.checker import check_equivalence
    from repro.surface.parser import parse_fexpr, parse_ftype

    left = parse_fexpr(job.source) if job.source is not None else None
    if left is None:
        left, _ = _resolve_program(job)
    right = parse_fexpr(job.options.right)
    ty = parse_ftype(job.options.type)
    report = check_equivalence(left, right, ty,
                               fuel=job.options.fuel or 30_000,
                               seed=job.options.seed)
    return {"equivalent": report.equivalent, "report": str(report),
            "agreements": len(report.agreements)}


def _do_link(job: Job) -> Dict[str, Any]:
    from repro.ft.machine import FTMachine
    from repro.link import ArtifactStore, build_and_link, parse_manifest
    from repro.resilience.budget import Budget

    manifest = parse_manifest(job.source)
    store = ArtifactStore(job.options.store) if job.options.store else None
    degraded_store = False
    try:
        report, linked = build_and_link(
            manifest, store, validate=job.options.validate,
            validate_fuel=job.options.fuel or 30_000,
            seed=job.options.seed)
    except (InjectedFault, OSError) as fault:
        # Graceful degradation: a faulting artifact store must cost
        # cache hits, not answers.  Rebuild everything store-less.
        if store is None or (isinstance(fault, InjectedFault)
                             and fault.seam != "store.io"):
            raise
        degraded_store = True
        from repro.obs.events import OBS
        if OBS.enabled:
            OBS.metrics.inc("serve.degraded.store")
        report, linked = build_and_link(
            manifest, None, validate=job.options.validate,
            validate_fuel=job.options.fuel or 30_000,
            seed=job.options.seed)
    out: Dict[str, Any] = {
        "components": [r.name for r in report.records],
        "tiers": {r.name: r.tier for r in report.records},
        "digests": {r.name: r.digest for r in report.records},
        "recompiled": report.recompiled,
        "cached": report.cached,
        "labels_renamed": linked.labels_renamed,
    }
    if degraded_store:
        out["degraded"] = True
    if job.options.validate:
        out["validation"] = {
            r.name: dict(r.validation, cached=r.validation_cached)
            for r in report.records if r.validation is not None}
    from repro.ft.typecheck import check_ft_expr

    ty, _ = check_ft_expr(linked.program)
    out["type"] = str(ty)
    if job.options.run:
        machine = FTMachine(budget=Budget(
            fuel=job.options.fuel or DEFAULT_FUEL,
            heap=job.options.heap, depth=job.options.depth))
        value = machine.evaluate(linked.program)
        out["value"] = str(value)
        out["steps"] = machine.budget.fuel_used
    return out


_EXECUTORS = {
    "parse": _do_parse,
    "typecheck": _do_typecheck,
    "run": _do_run,
    "jit": _do_jit,
    "compile": _do_compile,
    "equiv": _do_equiv,
    "resume": _do_resume,
    "link": _do_link,
}


def execute_job(job: Job,
                progress: Optional[Progress] = None) -> JobResult:
    """Execute ``job`` to a result; never raises for program-level
    failures.  The fault-injection options act *before* execution so the
    resilience tests can stage crashes and hangs deterministically.

    ``progress`` (wired by the pool worker loop to the result pipe)
    receives mid-run checkpoint records from jobs that set
    ``options.checkpoint_every``.

    When the job carries a ``trace_ctx``, execution runs under a
    :class:`repro.obs.distributed.WorkerCapture` and the result's
    ``obs`` field ships this process's spans/metrics back to whoever is
    stitching the cross-process trace.
    """
    if job.options.inject_sleep > 0:
        time.sleep(job.options.inject_sleep)
    if job.options.inject_crash:
        # Simulate a segfault: bypass all exception handling and die.
        os._exit(23)
    if job.options.inject_hang and hasattr(signal, "SIGSTOP"):
        # Freeze the whole process (heartbeat thread included): only
        # the manager's hung-worker detection can clear this.
        os.kill(os.getpid(), signal.SIGSTOP)
    if job.trace_ctx is not None:
        from repro.obs.distributed import TraceContext, WorkerCapture

        with WorkerCapture(TraceContext.from_dict(job.trace_ctx)) as cap:
            result = _run_with_chaos(job, progress)
        result.obs = cap.envelope
        return result
    return _run_with_chaos(job, progress)


def _run_with_chaos(job: Job, progress: Optional[Progress]) -> JobResult:
    """Arm a worker-side :class:`FaultPlane` when the job asks for one
    (``options.chaos_rate``), so drills can storm the executor seams
    inside real worker processes."""
    if job.options.chaos_rate <= 0:
        return _execute_guarded(job, progress)
    from repro.resilience.chaos import FaultPlane, active_plane

    if active_plane() is not None:     # e.g. in-process pool tests
        return _execute_guarded(job, progress)
    seams = [s.strip() for s in (job.options.chaos_seams or "").split(",")
             if s.strip()] or None
    with FaultPlane(seed=job.options.chaos_seed,
                    rate=job.options.chaos_rate, seams=seams):
        return _execute_guarded(job, progress)


def _execute_guarded(job: Job,
                     progress: Optional[Progress] = None) -> JobResult:
    start = time.perf_counter()
    try:
        fn = _EXECUTORS[job.kind]
        if job.kind in ("run", "resume"):
            output = fn(job, progress)
        else:
            output = fn(job)
        status, error, error_type = "ok", "", ""
    except _Suspended as s:
        output, status = s.output, "suspended"
        error, error_type = "", ""
    except FuelExhausted as err:
        output, status = {"fuel": err.fuel}, "fuel_exhausted"
        error, error_type = str(err), "FuelExhausted"
    except ResourceExhausted as err:
        output = {"resource": err.resource, "limit": err.limit,
                  "spent": err.spent}
        status = "resource_exhausted"
        error, error_type = str(err), type(err).__name__
    except FunTALError as err:
        output, status = {}, "error"
        error, error_type = str(err), type(err).__name__
    except RecursionError as err:
        output, status = {}, "error"
        error, error_type = f"recursion limit: {err}", "RecursionError"
    duration_ms = (time.perf_counter() - start) * 1000.0
    return JobResult(id=job.id, kind=job.kind, status=status, output=output,
                     error=error, error_type=error_type,
                     duration_ms=round(duration_ms, 3), worker=os.getpid())
