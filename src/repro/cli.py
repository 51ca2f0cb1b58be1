"""``funtal`` -- command-line typechecker, stepper, and example runner.

The reproduction's counterpart to the paper artifact's in-browser tools::

    funtal parse FILE            # parse and pretty-print back
    funtal typecheck FILE        # infer and print the type (and out-stack)
    funtal run FILE [--fuel N] [--trace]   # evaluate; --trace prints the
                                 # jump-level control-flow table
    funtal equiv LEFT RIGHT --type T       # bounded contextual equivalence
    funtal compile TARGET [--validate] [--store [DIR]] [--run]
                                 # whole-F compiler to typed assembly
    funtal build MANIFEST [--store DIR] [--validate]
                                 # separate compilation: build each
                                 # component of a manifest store-first
                                 # (only changed components recompile)
    funtal link MANIFEST [--store DIR] [--run]
                                 # build + typed linking (interface
                                 # checking, no body re-typechecking)
    funtal examples [NAME]       # list / run the built-in paper examples
    funtal examples --run        # run every example sequentially
    funtal trace NAME --format jsonl|chrome|table
                                 # run a paper example under the
                                 # observability layer and export the trace
    funtal stats [NAME] [--json] # metrics snapshot (optionally after
                                 # running an example under instrumentation);
                                 # histograms report p50/p95/p99
    funtal top NAME              # hot-code profile: rank lambdas/blocks
                                 # by self steps (content-hashed)
    funtal flame NAME            # folded-stack flamegraph lines
                                 # (flamegraph.pl / speedscope input)
    funtal slo [--p95-ms X]      # run the example fleet on a pool and
                                 # check serve.job.ms quantiles against
                                 # CI-checkable thresholds
    funtal serve [--port P] [--workers N]  # JSON-lines TCP evaluation
                                 # service over a crash-isolated pool
    funtal submit FILE [--kind K]          # send one job to a server
    funtal batch FILE.jsonl [--workers N]  # run a job file on a local pool
    funtal batch --examples --workers 4    # ... or all paper examples
    funtal batch --examples --trace-out t.jsonl  # ... capturing one
                                 # stitched cross-process trace (worker
                                 # spans reparented under serve.job)
    funtal chaos [--seeds 0,1,2] [--rate R]  # deterministic fault drill
                                 # over the paper examples (resilience)

``parse``, ``typecheck``, ``run``, ``equiv`` and ``compile`` print what
the serve executor (:func:`repro.serve.executor.execute_job`) computes
for their job, run in this process.

``run``, ``trace``, ``stats``, ``submit``, and ``batch`` share the
uniform resource-governor knobs ``--fuel`` / ``--heap`` / ``--depth``
(see ``docs/resilience.md``).

FILE contains either an F(T) expression or a bare T component in the
surface syntax (see README).  ``-`` reads from stdin.  Figure names
(``fig11``, ``fig16``, ``fig17``) alias the corresponding examples; see
``docs/observability.md`` for the tracing workflow and
``docs/serving.md`` for the evaluation service.

Exit codes: 0 success; 1 library error (parse/type/machine); 2 bad
usage/unknown name; 3 equivalence refuted; 4 lint warnings; 5 a resource
governor tripped (:class:`~repro.errors.ResourceExhausted` -- fuel, heap
cells, or stack depth; the bounded machines' verdict, reported as one
line, never a traceback); 6 a served job failed (crashed/timed out/
rejected); 7 an SLO threshold was breached (``funtal slo``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Tuple

from repro.analysis.trace import control_flow_table, format_table
from repro.errors import FunTALError, ResourceExhausted
from repro.f.syntax import FExpr
from repro.ft.machine import evaluate_ft
from repro.ft.typecheck import check_ft_expr
from repro.papers_examples import (
    EXAMPLE_ALIASES, example_entries as _example_entries,
    resolve_example as _resolve_example,
)
from repro.resilience.budget import Budget
from repro.serve.executor import execute_job, resolve_program
from repro.surface.parser import parse_program
from repro.tal.syntax import Component

__all__ = ["main", "EXIT_FUEL_EXHAUSTED", "EXIT_JOB_FAILED",
           "EXIT_SLO_BREACH"]

#: Dedicated exit code for ResourceExhausted (a budget governor tripped:
#: fuel, heap cells, or stack depth).  The name keeps its historical
#: spelling -- fuel was the first and is still the most common governor.
EXIT_FUEL_EXHAUSTED = 5
#: Dedicated exit code for a failed served job (crashed/timed out/rejected).
EXIT_JOB_FAILED = 6
#: Dedicated exit code for ``funtal slo``: a latency/error threshold was
#: breached.  Distinct from job failure so CI can gate on SLOs alone.
EXIT_SLO_BREACH = 7


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    """The uniform resource-governor knobs (shared by run/trace/stats/
    submit/batch/chaos).  ``None`` defers to the unified defaults in
    :mod:`repro.resilience.budget`."""
    parser.add_argument("--fuel", type=int, default=None,
                        help="machine step budget (default 1,000,000)")
    parser.add_argument("--heap", type=int, default=None,
                        help="heap-cell budget (default 1,000,000)")
    parser.add_argument("--depth", type=int, default=None,
                        help="stack-depth budget (default 1,000,000)")


def _add_engine_arg(parser: argparse.ArgumentParser) -> None:
    """The F-stepper selector (shared by run/trace/submit/batch).
    ``None`` defers to :data:`repro.f.cek.DEFAULT_ENGINE` (``cek``); the
    two engines are observably step-equivalent, so this is purely a
    performance knob (see docs/performance.md)."""
    parser.add_argument("--engine", choices=("subst", "cek"), default=None,
                        help="F stepper: cek (environment machine, the "
                             "default) or subst (literal substitution "
                             "semantics)")
    parser.add_argument("--tal-engine", choices=("ref", "fast"),
                        default=None, dest="tal_engine",
                        help="T engine: fast (type-erased direct-threaded "
                             "tier with template JIT, the default) or ref "
                             "(typed reference stepper, the oracle); "
                             "observably equivalent, purely a performance "
                             "knob")


def _budget_from_args(args: argparse.Namespace) -> Budget:
    return Budget(fuel=args.fuel, heap=args.heap, depth=args.depth)


def _load(path: str) -> str:
    """The text of ``path`` (``-``: standard input); a file that cannot
    be read is a one-line error, not a traceback."""
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise FunTALError(f"cannot read {path!r}: {reason}") from None


#: Exit codes of the executor's errors that are not plain library
#: errors (exit 1): a request the tool does not take, and a refuted
#: compilation.
_ERROR_EXITS = {"UsageError": 2, "ValidationFailed": 3}
_TOO_DEEP = "error: program too deeply nested for the surface parser/printer"


def _output(result) -> Tuple[Optional[Dict], int]:
    """An executor result as ``(output, 0)``, or as ``(None, exit code)``
    once the failure's one line is on stderr."""
    if result.ok:
        return result.output, 0
    code = _result_exit_code(result)
    if code == EXIT_FUEL_EXHAUSTED:
        # A tripped governor (fuel, heap cells, stack depth) is the
        # bounded machines' verdict, not an internal error.
        print(f"{result.error_type}: {result.error}", file=sys.stderr)
        return None, code
    print(_TOO_DEEP if result.error_type == "RecursionError"
          else f"error: {result.error}", file=sys.stderr)
    return None, _ERROR_EXITS.get(result.error_type, code)


def cmd_parse(args: argparse.Namespace) -> int:
    out, code = _output(execute_job(_job_from_args(args)))
    if out is not None:
        print(out["pretty"])
    return code


def cmd_typecheck(args: argparse.Namespace) -> int:
    out, code = _output(execute_job(_job_from_args(args)))
    if out is not None:
        print(f"{out['node']} : {out['type']} ; {out['stack']}")
    return code


def cmd_run(args: argparse.Namespace) -> int:
    out, code = _output(execute_job(_job_from_args(args)))
    if out is None:
        return code
    if "halted" in out:
        print(f"halted with {out['halted']} : {out['type']}")
    else:
        print(f"value: {out['value']}")
    if args.trace:
        print()
        print(out["control_flow"])
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    out, code = _output(execute_job(_job_from_args(args)))
    if out is None:
        return code
    print(out["report"])
    if not out["equivalent"]:
        return 3
    for agreement in out["agreements"]:
        print(f"  agreed on {agreement}")
    return 0


def _verdict(validation: Dict, cached: bool) -> str:
    """A translation-validation receipt in one line."""
    if cached:
        return "cached receipt"
    return "validated" if validation.get("ok") \
        else f"FAILED: {validation.get('failure')}"


def cmd_compile(args: argparse.Namespace) -> int:
    args.example = args.file if _resolve_example(args.file) else None
    if args.store == "":
        from repro.link import default_store_root

        args.store = str(default_store_root())
    job = _job_from_args(args)
    out, code = _output(execute_job(job))
    if out is None:
        return code
    print(f"type: {out['type']}")
    print(f"blocks: {out['blocks']}")
    if args.ir:
        print()
        print("closure IR:")
        print(out["ir"])
    print()
    print(out["assembly"])
    if "stored" in out:
        print()
        print(f"stored: {out['stored']['digest'][:16]} -> "
              f"{out['stored']['store']}")
    if args.validate:
        print()
        print("translation validation: "
              + _verdict(out["validation"], out["validation"]["cached"]))
    if not args.run:
        return 0
    # --run evaluates the compiled term the job printed (a compile-cache
    # hit), applied to the --apply arguments.
    from repro.compile import compile_term
    from repro.f.syntax import App, FArrow, Lam
    from repro.surface.parser import parse_fexpr

    node, _ = resolve_program(job)
    result = compile_term(node)
    program: FExpr = result.wrapped
    if args.apply:
        program = App(program, tuple(parse_fexpr(a) for a in args.apply))
    elif isinstance(result.ty, FArrow) and isinstance(node, Lam):
        print()
        print("(not running: the compiled term is a function; pass "
              "--apply ARG per argument)", file=sys.stderr)
        return 2
    value, _machine = evaluate_ft(program,
                                  budget=Budget.of(args.run_fuel, None, None))
    print()
    print(f"value: {value}")
    return 0


def _open_store(path: Optional[str]) -> "object":
    from repro.link import ArtifactStore

    return ArtifactStore(path or None)


def cmd_build(args: argparse.Namespace) -> int:
    import json as _json

    from repro.link import build_manifest, parse_manifest

    manifest = parse_manifest(_load(args.manifest))
    store = _open_store(args.store)
    report = build_manifest(manifest, store, validate=args.validate,
                            validate_fuel=args.fuel, seed=args.seed)
    if args.json:
        print(_json.dumps(dict(report.to_json(), store=str(store.root)),
                          indent=2, sort_keys=True))
    else:
        print(f"built {len(report.records)} component(s) "
              f"(store: {store.root})")
        for rec in report.records:
            status = "cached  " if rec.cached else "compiled"
            print(f"  {status}  {rec.name:<10s} {rec.tier:<12s} "
                  f"{rec.digest[:12]}  : {rec.iface.ty}")
            if rec.validation is not None:
                print(f"{'':>12s}validation: "
                      + _verdict(rec.validation, rec.validation_cached))
    failed = [rec.name for rec in report.records
              if rec.validation is not None
              and not rec.validation.get("ok")]
    if failed:
        print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    from repro.link import build_and_link, parse_manifest

    manifest = parse_manifest(_load(args.manifest))
    store = _open_store(args.store)
    report, linked = build_and_link(manifest, store,
                                    validate=args.validate,
                                    validate_fuel=args.fuel,
                                    seed=args.seed)
    failed = [rec.name for rec in report.records
              if rec.validation is not None
              and not rec.validation.get("ok")]
    if failed:
        print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    ty, _ = check_ft_expr(linked.program)
    print(f"linked {len(report.records)} component(s) in order: "
          f"{', '.join(linked.order)}")
    for rec in report.records:
        status = "cached" if rec.cached else "compiled"
        print(f"  {rec.name:<10s} {rec.tier:<12s} {status:<8s} "
              f": {rec.iface.ty}")
    print(f"labels renamed: {linked.labels_renamed}")
    print(f"type: {ty}")
    if args.run:
        budget = Budget.of(args.run_fuel, None, None)
        value, _machine = evaluate_ft(linked.program, budget=budget)
        print(f"value: {value}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import lint_component
    from repro.ft.syntax import Boundary

    node = parse_program(_load(args.file))
    components = []
    if isinstance(node, Component):
        components.append(("<program>", node))
    else:
        from repro.f.syntax import iter_subexprs

        for sub in iter_subexprs(node):
            if isinstance(sub, Boundary):
                components.append((f"FT[{sub.ty}]", sub.comp))
    total = 0
    for where, comp in components:
        for warning in lint_component(comp):
            print(f"{where} {warning}")
            total += 1
    if total == 0:
        print("clean: no lint warnings")
    return 0 if total == 0 else 4


def _run_one_example(name: str, blurb: str, build: Callable[[], FExpr],
                     trace: bool) -> None:
    program = build()
    print(f"-- {name}: {blurb}")
    print(program)
    ty, _ = check_ft_expr(program)
    print(f"type: {ty}")
    value, machine = evaluate_ft(program, trace=trace)
    print(f"value: {value}")
    if trace:
        print()
        print(format_table(control_flow_table(machine.trace),
                           title="control flow"))


def cmd_examples(args: argparse.Namespace) -> int:
    entries = _example_entries()
    if args.run:
        # Sequentially typecheck + evaluate every example -- the one-
        # process baseline that `funtal batch --examples` parallelizes.
        for name, (blurb, build) in entries.items():
            _run_one_example(name, blurb, build, args.trace)
        print(f"ran {len(entries)} examples")
        return 0
    if not args.name:
        print("built-in paper examples (funtal examples NAME to run):")
        for name, (blurb, _) in entries.items():
            print(f"  {name:14s} {blurb}")
        return 0
    entry = _resolve_example(args.name)
    if entry is None:
        print(f"unknown example {args.name!r}", file=sys.stderr)
        return 2
    _run_one_example(args.name, entry[0], entry[1], args.trace)
    return 0


def _run_example_instrumented(name: str, budget: Budget,
                              engine: Optional[str] = None,
                              tal_engine: Optional[str] = None):
    """Run a paper example under the observability layer; returns
    ``(value, machine, events, metrics_snapshot)`` or ``None`` (after
    printing the shared unknown-example message) if the name is unknown.
    This is the one instrumented-run path shared by ``funtal trace`` and
    ``funtal stats``."""
    from repro import obs

    entry = _resolve_example(name)
    if entry is None:
        print(f"unknown example {name!r} (see 'funtal examples')",
              file=sys.stderr)
        return None
    _, build = entry
    program = build()
    obs.reset()
    obs.enable(record=True)
    try:
        value, machine = evaluate_ft(program, trace=True, budget=budget,
                                     engine=engine, tal_engine=tal_engine)
        # Append the final counter totals to the stream (while the bus is
        # still recording) so exported traces are self-contained -- one
        # Counter event per metric, not one per increment.
        obs.OBS.metrics.flush_to(obs.OBS.bus)
    finally:
        obs.disable()
    events = obs.OBS.bus.drain()
    return value, machine, events, obs.OBS.metrics.snapshot()


def cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro import obs
    from repro.obs.events import MachineEvent

    result = _run_example_instrumented(args.example, _budget_from_args(args),
                                       engine=args.engine,
                                       tal_engine=getattr(args, "tal_engine",
                                                          None))
    if result is None:
        return 2
    value, machine, events, snapshot = result

    try:
        out = open(args.out, "w", encoding="utf-8") if args.out \
            else sys.stdout
    except OSError as err:
        print(f"error: cannot write {args.out}: {err}", file=sys.stderr)
        return 1
    try:
        if args.format == "jsonl":
            obs.export_jsonl(events, out)
        elif args.format == "chrome":
            obs.export_chrome(events, out)
        else:
            machine_events = [e for e in events
                              if isinstance(e, MachineEvent)]
            rows = control_flow_table(machine_events)
            print(f"value: {value}", file=out)
            print(file=out)
            print(format_table(rows, title=f"{args.example} control flow"),
                  file=out)
            crossings = {
                k: v for k, v in snapshot["counters"].items()
                if k.startswith("ft.boundary.")}
            print(file=out)
            print("boundary crossings: "
                  + (_json.dumps(crossings) if crossings else "none"),
                  file=out)
    finally:
        if args.out:
            out.close()
    if args.out:
        print(f"wrote {len(events)} events to {args.out}", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    import json as _json

    from repro import obs

    if args.example:
        result = _run_example_instrumented(args.example,
                                           _budget_from_args(args))
        if result is None:
            return 2
        snapshot = result[3]
    else:
        snapshot = obs.OBS.metrics.snapshot()
        snapshot["jit_compile_cache"] = _jit_cache_stats()
    snapshot["jit_quarantine"] = _jit_quarantine_stats()
    if args.json:
        print(_json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(obs.OBS.metrics.format_table() if args.example
              else _format_snapshot(snapshot))
    return 0


def _jit_cache_stats() -> Dict:
    """The JIT's compile cache (a shared :class:`repro.caching.LRUCache`)
    as a stats dict, without forcing the compiler import if it never
    ran."""
    import sys as _sys

    compiler = _sys.modules.get("repro.compile.pipeline")
    if compiler is None:
        return {"size": 0, "maxsize": 0, "hits": 0, "misses": 0,
                "evictions": 0}
    return compiler.COMPILE_CACHE.stats()


def _jit_quarantine_stats() -> Dict:
    """The JIT safety net's circuit breaker as a stats dict, without
    forcing the safety-net import if no guarded run happened."""
    import sys as _sys

    safety_net = _sys.modules.get("repro.resilience.safety_net")
    if safety_net is None:
        return {"size": 0, "hits": 0, "entries": []}
    return safety_net.QUARANTINE.stats()


def _format_snapshot(snapshot: Dict) -> str:
    lines = []
    for section in ("counters", "gauges"):
        for name, value in snapshot[section].items():
            lines.append(f"{name}  {value}")
    for name, h in snapshot["histograms"].items():
        lines.append(
            f"{name}  count={h['count']} mean={h['mean']}"
            f" p50={h.get('p50')} p95={h.get('p95')} p99={h.get('p99')}")
    jit_cache = snapshot.get("jit_compile_cache", {})
    if jit_cache.get("hits") or jit_cache.get("misses"):
        lines.append(
            "jit compile cache  size={size}/{maxsize} hits={hits} "
            "misses={misses} evictions={evictions}".format(**jit_cache))
    quarantine = snapshot.get("jit_quarantine", {})
    if quarantine.get("size") or quarantine.get("hits"):
        lines.append("jit quarantine  size={size} hits={hits}".format(
            **{k: quarantine[k] for k in ("size", "hits")}))
        for lam, why in quarantine.get("entries", []):
            lines.append(f"  quarantined {lam}  ({why})")
    if not lines:
        return "(no metrics recorded in this process)"
    return "\n".join(lines)


def _run_example_profiled(name: str, budget: Budget,
                          engine: Optional[str] = None,
                          tal_engine: Optional[str] = None):
    """Run a paper example under the hot-code profiler; returns
    ``(value, ProfileSnapshot)`` or ``None`` (after printing the shared
    unknown-example message).  Shared by ``funtal top`` and ``funtal
    flame``."""
    from repro.obs.profile import PROFILER

    entry = _resolve_example(name)
    if entry is None:
        print(f"unknown example {name!r} (see 'funtal examples')",
              file=sys.stderr)
        return None
    program = entry[1]()
    PROFILER.reset()
    PROFILER.enable()
    try:
        value, _machine = evaluate_ft(program, budget=budget, engine=engine,
                                      tal_engine=tal_engine)
    finally:
        snap = PROFILER.snapshot()
        PROFILER.disable()
        PROFILER.reset()
    return value, snap


def cmd_top(args: argparse.Namespace) -> int:
    import json as _json

    result = _run_example_profiled(args.example, _budget_from_args(args),
                                   engine=args.engine,
                                   tal_engine=getattr(args, "tal_engine",
                                                      None))
    if result is None:
        return 2
    value, snap = result
    if args.out:
        snap.save(args.out)
        print(f"wrote profile snapshot to {args.out}", file=sys.stderr)
    if args.json:
        print(_json.dumps(snap.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"value: {value}")
        print()
        print(snap.format_table(limit=args.limit))
    return 0


def cmd_flame(args: argparse.Namespace) -> int:
    result = _run_example_profiled(args.example, _budget_from_args(args),
                                   engine=args.engine)
    if result is None:
        return 2
    _value, snap = result
    folded = snap.format_folded()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(folded + ("\n" if folded else ""))
        print(f"wrote {len(snap.folded)} folded stacks to {args.out}",
              file=sys.stderr)
    else:
        print(folded)
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    import json as _json

    from repro import obs
    from repro.serve.pool import WorkerPool
    from repro.serve.protocol import Job, JobOptions

    obs.reset()
    obs.enable(record=False)
    jobs = [
        Job("run", id=f"{name}#{rep}", example=name,
            options=JobOptions(fuel=args.fuel, no_cache=True,
                               timeout=args.timeout))
        for rep in range(args.repeat)
        for name in _example_entries()]
    try:
        with WorkerPool(args.workers, cache=None,
                        default_timeout=args.timeout or 30.0) as pool:
            results = pool.run_batch(jobs)
    finally:
        obs.disable()
    snapshot = obs.OBS.metrics.snapshot()
    hist = snapshot["histograms"].get("serve.job.ms")
    failed = sum(not r.ok for r in results)
    error_rate = failed / len(results) if results else 0.0
    if hist is None:
        print("error: no serve.job.ms samples recorded", file=sys.stderr)
        return 1

    checks = []  # (name, observed, threshold) with threshold None = report
    for q in ("p50", "p95", "p99"):
        checks.append((f"{q}_ms", hist[q], getattr(args, f"{q}_ms")))
    checks.append(("error_rate", round(error_rate, 4),
                   args.max_error_rate))
    breaches = [(name, observed, limit) for name, observed, limit in checks
                if limit is not None and observed > limit]

    report = {
        "jobs": len(results), "failed": failed,
        "workers": args.workers,
        "serve.job.ms": {k: hist[k]
                         for k in ("count", "mean", "p50", "p95", "p99",
                                   "min", "max")},
        "thresholds": {name: limit for name, _, limit in checks
                       if limit is not None},
        "breaches": [{"check": name, "observed": observed, "limit": limit}
                     for name, observed, limit in breaches],
        "ok": not breaches,
    }
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"slo: {len(results)} jobs on {args.workers} workers "
              f"({failed} failed)")
        for name, observed, limit in checks:
            verdict = "  " if limit is None else \
                ("OK" if observed <= limit else "BREACH")
            bound = f" <= {limit}" if limit is not None else ""
            print(f"  {verdict:6s} {name:12s} {observed}{bound}")
    if breaches:
        for name, observed, limit in breaches:
            print(f"slo breach: {name} = {observed} > {limit}",
                  file=sys.stderr)
        return EXIT_SLO_BREACH
    return 0


def _job_from_args(args: argparse.Namespace):
    """Build a protocol Job from a command's options: ``submit``'s, or
    those of a program command, whose name is the job kind."""
    from repro.serve.protocol import Job, JobOptions

    options = JobOptions(
        fuel=getattr(args, "fuel", None), heap=getattr(args, "heap", None),
        depth=getattr(args, "depth", None),
        checkpoint=getattr(args, "checkpoint", False),
        jit=getattr(args, "jit", False),
        timeout=getattr(args, "timeout", None),
        result_type=getattr(args, "result_type", "int"),
        trace=getattr(args, "trace", False),
        validate=getattr(args, "validate", False),
        ir=getattr(args, "ir", False),
        seed=getattr(args, "seed", 0),
        type=getattr(args, "type", None),
        right=_load(args.right) if getattr(args, "right", None) else None,
        no_cache=getattr(args, "no_cache", False),
        engine=getattr(args, "engine", None),
        tal_engine=getattr(args, "tal_engine", None),
        store=getattr(args, "store", None),
    )
    kind = getattr(args, "kind", None) or args.command
    if getattr(args, "example", None):
        return Job(kind, example=args.example, options=options)
    if not args.file:
        raise FunTALError("need a FILE or --example")
    return Job(kind, source=_load(args.file), options=options)


def _result_exit_code(result) -> int:
    if result.ok:
        return 0
    if result.status == "suspended":
        # A checkpointing run that handed back its snapshot did exactly
        # what was asked; resuming is the caller's next move.
        return 0
    if result.status in ("fuel_exhausted", "resource_exhausted"):
        return EXIT_FUEL_EXHAUSTED
    if result.status in ("timeout", "crashed", "rejected", "overloaded"):
        return EXIT_JOB_FAILED
    return 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro import obs
    from repro.serve.server import ServeServer

    obs.enable(record=False)        # serve.* counters on, no event buffer
    server = ServeServer(
        args.host, args.port, workers=args.workers,
        cache_size=args.cache_size, queue_size=args.queue_size,
        default_timeout=args.timeout, max_retries=args.max_retries)

    async def _serve() -> None:
        # Bind first, announce second: with --port 0 the kernel picks the
        # port, so the banner must read it back from the bound socket.
        await server.start()
        print(f"funtal serve: listening on {args.host}:{server.port} "
              f"({args.workers} workers, cache {args.cache_size}, "
              f"queue {args.queue_size})",
              file=sys.stderr, flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        server.pool.close()
    return 0


def _write_trace(events, path: str, fmt: str) -> None:
    """Write drained obs events to ``path`` as jsonl or chrome JSON."""
    from repro import obs

    with open(path, "w", encoding="utf-8") as out:
        if fmt == "chrome":
            obs.export_chrome(events, out)
        else:
            obs.export_jsonl(events, out)
    print(f"wrote {len(events)} trace events to {path}", file=sys.stderr)


def cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.client import ServeClient

    job = _job_from_args(args)
    if not args.trace_out:
        with ServeClient(args.host, args.port) as client:
            result = client.submit(job)
        print(_json.dumps(result.to_dict(), sort_keys=True))
        return _result_exit_code(result)

    # --trace-out: attach a client-side trace context so the remote
    # worker captures its spans/metrics into the result envelope, then
    # stitch them under a synthetic serve.submit root span locally.
    import time as _time

    from repro import obs
    from repro.obs import events as obs_events
    from repro.obs.distributed import new_trace_id, stitch_envelope

    obs.reset()
    obs.enable(record=True)
    try:
        span_id = next(obs_events._span_ids)
        job.trace_ctx = {"trace_id": new_trace_id(),
                         "parent_span_id": span_id, "record": True}
        start_ns = _time.perf_counter_ns()
        with ServeClient(args.host, args.port) as client:
            result = client.submit(job)
        end_ns = _time.perf_counter_ns()
        stitched = []
        if result.obs:
            stitched = list(stitch_envelope(result.obs, span_id))
            obs.OBS.metrics.merge_snapshot(result.obs.get("metrics", {}))
        obs.OBS.bus.publish(obs_events.Span(
            "serve.submit", "serve", start_ns, end_ns, span_id, None,
            (("kind", job.kind), ("status", result.status))))
        obs.OBS.metrics.flush_to(obs.OBS.bus)
    finally:
        obs.disable()
    _write_trace(stitched + obs.OBS.bus.drain(), args.trace_out,
                 args.format)
    # The envelope now lives in the trace file; keep stdout lean.
    wire = result.to_dict()
    wire.pop("obs", None)
    print(_json.dumps(wire, sort_keys=True))
    return _result_exit_code(result)


def _batch_rounds(args: argparse.Namespace):
    """The batch's work as a list of *rounds*.  Each round is one
    ``run_batch`` call, so with ``--repeat`` every round after the first
    is a genuine resubmission that can be served from the result cache
    (whereas one bulk submission would race its own first round)."""
    from repro.serve.protocol import Job, JobOptions, jobs_from_jsonl

    if args.examples:
        return [
            [Job("run", id=f"{name}#{rep}", example=name,
                 options=JobOptions(fuel=args.fuel, heap=args.heap,
                                    depth=args.depth, timeout=args.timeout,
                                    no_cache=args.no_cache,
                                    engine=args.engine,
                                    tal_engine=args.tal_engine))
             for name in _example_entries()]
            for rep in range(args.repeat)]
    if not args.file:
        raise FunTALError("need a FILE.jsonl or --examples")
    jobs = jobs_from_jsonl(_load(args.file))
    for job in jobs:
        if args.no_cache:
            job.options.no_cache = True
        if args.timeout and job.options.timeout is None:
            job.options.timeout = args.timeout
        for knob in ("fuel", "heap", "depth", "engine", "tal_engine"):
            if getattr(args, knob) and getattr(job.options, knob) is None:
                setattr(job.options, knob, getattr(args, knob))
    return [jobs]


def cmd_batch(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time

    from repro import obs
    from repro.serve.cache import ResultCache
    from repro.serve.pool import WorkerPool

    # --trace-out turns on event recording: the pool then ships each
    # worker's spans back in the result envelopes and stitches them into
    # one cross-process tree on this side (see docs/observability.md).
    tracing = bool(args.trace_out)
    if tracing:
        obs.reset()
    obs.enable(record=tracing)
    rounds = _batch_rounds(args)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        start = _time.perf_counter()
        results = []
        with WorkerPool(args.workers,
                        cache=None if args.no_cache
                        else ResultCache(args.cache_size),
                        default_timeout=args.timeout or 30.0,
                        max_retries=args.max_retries) as pool:
            for round_jobs in rounds:
                results.extend(pool.run_batch(round_jobs))
        wall = _time.perf_counter() - start
        for result in results:
            print(_json.dumps(result.to_dict(), sort_keys=True), file=out)
    finally:
        if args.out:
            out.close()
    if tracing:
        obs.OBS.metrics.flush_to(obs.OBS.bus)
        events = obs.OBS.bus.drain()
        obs.disable()
        _write_trace(events, args.trace_out, args.format)
    ok = sum(r.ok for r in results)
    cached = sum(r.cached for r in results)
    summary = {
        "jobs": len(results), "ok": ok, "failed": len(results) - ok,
        "cached": cached, "workers": args.workers,
        "wall_s": round(wall, 3),
        "jobs_per_s": round(len(results) / wall, 1) if wall else 0.0,
    }
    print(f"batch: {_json.dumps(summary, sort_keys=True)}", file=sys.stderr)
    return 0 if ok == len(results) else EXIT_JOB_FAILED


def _chaos_one(name: str, build, reference: str, seed: int, rate: float,
               seams, fuel: Optional[int]) -> Tuple[str, Dict]:
    """One chaos trial: run ``name`` under a seeded fault plane through
    the guarded JIT, then suspend/checkpoint/resume it at half fuel.

    Returns ``(verdict, detail)``.  A verdict is *acceptable* when it is
    ``"ok"`` (right answer despite injected faults -- the safety net
    absorbed them) or a structured degradation (``fault:*``,
    ``exhausted:*``, ``snapshot-error``); it is a *failure* when the
    answer is wrong or a non-FunTAL exception escapes.
    """
    from repro.errors import InjectedFault, SnapshotError
    from repro.ft.machine import FTMachine
    from repro.compile.pipeline import clear_compile_cache
    from repro.resilience.chaos import FaultPlane
    from repro.resilience.safety_net import Quarantine, run_guarded

    detail: Dict = {}
    clear_compile_cache()
    quarantine = Quarantine()
    with FaultPlane(seed=seed, rate=rate, seams=seams) as plane:
        # Trial 1: full run through the guarded JIT.
        try:
            value, _machine, report = run_guarded(
                build(), fuel=fuel, quarantine=quarantine)
            verdict = "ok" if str(value) == reference \
                else f"WRONG-ANSWER:{value}"
            detail["fell_back"] = report.fell_back
            detail["quarantined"] = len(quarantine)
        except InjectedFault as err:
            verdict = f"fault:{err.seam}"
        except ResourceExhausted as err:
            verdict = f"exhausted:{err.resource}"
        except SnapshotError:
            verdict = "snapshot-error"
        except FunTALError as err:
            verdict = f"error:{type(err).__name__}"
        except Exception as err:   # noqa: BLE001 -- the whole point
            verdict = f"UNHANDLED:{type(err).__name__}:{err}"

        # Trial 2: suspend at a tiny fuel slice, checkpoint through the
        # (possibly faulting) pickle seam, restore, resume to the end.
        try:
            machine = FTMachine(budget=Budget(fuel=5))
            entry = _resolve_example(name)
            try:
                machine.evaluate(entry[1]())
                resume_verdict = "finished-early"
            except ResourceExhausted:
                if not machine.suspended:
                    resume_verdict = "exhausted:terminal"
                else:
                    snap = machine.snapshot()
                    revived = FTMachine.restore(snap)
                    outcome = revived.resume(fuel=fuel or 1_000_000)
                    resume_verdict = "ok" if str(outcome) == reference \
                        else f"WRONG-ANSWER:{outcome}"
        except InjectedFault as err:
            resume_verdict = f"fault:{err.seam}"
        except ResourceExhausted as err:
            resume_verdict = f"exhausted:{err.resource}"
        except SnapshotError:
            resume_verdict = "snapshot-error"
        except FunTALError as err:
            resume_verdict = f"error:{type(err).__name__}"
        except Exception as err:   # noqa: BLE001
            resume_verdict = f"UNHANDLED:{type(err).__name__}:{err}"
    detail["resume"] = resume_verdict
    detail["faults"] = plane.summary()["faults"]
    if "WRONG" in resume_verdict or "UNHANDLED" in resume_verdict:
        verdict = resume_verdict if verdict == "ok" else verdict
    return verdict, detail


def _cmd_chaos_serve_drill(args: argparse.Namespace) -> int:
    """``funtal chaos drill --serve``: storm a live worker pool.

    Exit 0 iff no job was lost AND at least one job finished via
    mid-run checkpoint recovery on a sibling worker -- the two
    supervision invariants the fleet is built around.
    """
    import json as _json

    from repro.serve.drill import run_serve_drill

    report = run_serve_drill(
        seed=args.seed, jobs=args.jobs, workers=args.workers,
        rate=args.fault_rate)
    if args.json:
        print(_json.dumps(report, sort_keys=True))
    else:
        statuses = ", ".join(f"{k}={v}"
                             for k, v in report["statuses"].items())
        mttr = report["mttr_ms"]
        print(f"serve drill: seed={report['seed']} "
              f"jobs={report['jobs']} workers={report['workers']} "
              f"rate={report['fault_rate']}")
        print(f"  statuses: {statuses}")
        print(f"  lost={report['lost']} recovered={report['recovered']} "
              f"degraded={report['degraded']} shed={report['shed']} "
              f"quarantined={report['quarantined']}")
        print(f"  mttr: count={mttr.get('count', 0)} "
              f"mean={mttr.get('mean', 0.0):.1f}ms "
              f"max={mttr.get('max', 0.0):.1f}ms "
              f"wall={report['duration_s']}s")
    ok = report["lost"] == 0 and report["recovered"] >= 1
    if not ok:
        print(f"serve drill FAILED: lost={report['lost']} "
              f"recovered={report['recovered']} "
              "(need lost == 0 and recovered >= 1)", file=sys.stderr)
    return 0 if ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    import json as _json

    from repro.resilience.chaos import SEAMS

    if getattr(args, "mode", None) == "drill":
        if not args.serve:
            print("chaos drill requires --serve (the classic in-process "
                  "sweep is plain 'funtal chaos')", file=sys.stderr)
            return 2
        return _cmd_chaos_serve_drill(args)

    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    seams = None
    if args.seams:
        seams = [s.strip() for s in args.seams.split(",") if s.strip()]
        unknown = set(seams) - set(SEAMS)
        if unknown:
            print(f"unknown seam(s): {', '.join(sorted(unknown))} "
                  f"(known: {', '.join(sorted(SEAMS))})", file=sys.stderr)
            return 2
    entries = _example_entries()
    if args.examples:
        picked = {}
        for name in args.examples.split(","):
            entry = _resolve_example(name.strip())
            if entry is None:
                print(f"unknown example {name.strip()!r}", file=sys.stderr)
                return 2
            picked[name.strip()] = entry
        entries = picked

    # Authoritative answers first, outside any fault plane.
    reference = {}
    for name, (_, build) in entries.items():
        value, _ = evaluate_ft(build(), fuel=args.fuel)
        reference[name] = str(value)

    rows = []
    failures = 0
    for seed in seeds:
        for name, (_, build) in entries.items():
            verdict, detail = _chaos_one(
                name, build, reference[name], seed, args.rate, seams,
                args.fuel)
            bad = "WRONG" in verdict or "UNHANDLED" in verdict \
                or "WRONG" in detail["resume"] \
                or "UNHANDLED" in detail["resume"]
            failures += bad
            rows.append({"seed": seed, "example": name,
                         "verdict": verdict, **detail})

    if args.json:
        print(_json.dumps({"rows": rows, "failures": failures,
                           "seeds": seeds, "rate": args.rate},
                          sort_keys=True))
    else:
        for row in rows:
            flag = "FAIL" if ("WRONG" in row["verdict"]
                              or "UNHANDLED" in row["verdict"]) else "ok"
            print(f"[{flag}] seed={row['seed']} {row['example']:14s} "
                  f"run={row['verdict']} resume={row['resume']} "
                  f"faults={row['faults']}")
        print(f"chaos: {len(rows)} trials, {failures} failures "
              f"(seeds {','.join(map(str, seeds))}, rate {args.rate})")
    return 0 if failures == 0 else 1


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funtal",
        description="FunTAL multi-language tools (PLDI 2017 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse and pretty-print")
    p_parse.add_argument("file")
    p_parse.set_defaults(fn=cmd_parse)

    p_check = sub.add_parser("typecheck", help="typecheck a program")
    p_check.add_argument("file")
    p_check.add_argument("--result-type", default="int",
                         help="halt type for bare T components")
    p_check.set_defaults(fn=cmd_typecheck)

    p_run = sub.add_parser("run", help="evaluate a program")
    p_run.add_argument("file")
    _add_budget_args(p_run)
    _add_engine_arg(p_run)
    p_run.add_argument("--trace", action="store_true",
                       help="print the jump-level control-flow table")
    p_run.set_defaults(fn=cmd_run)

    p_eq = sub.add_parser(
        "equiv",
        help="differentially test two expressions for contextual "
             "equivalence at a type")
    p_eq.add_argument("file", metavar="left")
    p_eq.add_argument("right")
    p_eq.add_argument("--type", required=True,
                      help="the common F type, e.g. '(int) -> int'")
    p_eq.add_argument("--fuel", type=int, default=30_000)
    p_eq.add_argument("--seed", type=int, default=0)
    p_eq.set_defaults(fn=cmd_equiv)

    p_comp = sub.add_parser(
        "compile",
        help="compile a whole F term to typed assembly (with "
             "translation validation)")
    p_comp.add_argument("file", metavar="target",
                        help="an F source file, '-' for stdin, or a "
                             "paper-example name (e.g. fact-f)")
    p_comp.add_argument("--ir", action="store_true",
                        help="also print the closure-conversion IR")
    p_comp.add_argument("--validate", action="store_true",
                        help="run translation validation (typecheck + "
                             "differential execution + bounded "
                             "contextual equivalence)")
    p_comp.add_argument("--run", action="store_true",
                        help="evaluate the compiled term (functions "
                             "need --apply)")
    p_comp.add_argument("--apply", action="append", default=[],
                        metavar="ARG",
                        help="argument expression for --run "
                             "(repeatable, one per parameter)")
    p_comp.add_argument("--fuel", type=int, default=30_000,
                        help="fuel per validation observation")
    p_comp.add_argument("--run-fuel", type=int, default=None,
                        help="machine step budget for --run "
                             "(default 1,000,000)")
    p_comp.add_argument("--seed", type=int, default=0,
                        help="validation input-generator seed")
    p_comp.add_argument("--store", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="persist the compilation in the artifact "
                             "store (default dir: $FUNTAL_STORE or "
                             "~/.cache/funtal); with --validate, reuses "
                             "stored validation receipts")
    p_comp.set_defaults(fn=cmd_compile)

    p_bld = sub.add_parser(
        "build",
        help="incrementally compile a multi-component manifest "
             "(store-first: only changed components recompile)")
    p_bld.add_argument("manifest",
                       help="manifest JSON file ('-' for stdin); see "
                            "docs/linking.md")
    p_bld.add_argument("--store", default=None, metavar="DIR",
                       help="artifact store directory (default: "
                            "$FUNTAL_STORE or ~/.cache/funtal)")
    p_bld.add_argument("--validate", action="store_true",
                       help="translation-validate compiled components "
                            "(receipts cached by content hash)")
    p_bld.add_argument("--fuel", type=int, default=30_000,
                       help="fuel per validation observation")
    p_bld.add_argument("--seed", type=int, default=0,
                       help="validation input-generator seed")
    p_bld.add_argument("--json", action="store_true",
                       help="machine-readable build report")
    p_bld.set_defaults(fn=cmd_build)

    p_lnk = sub.add_parser(
        "link",
        help="build a manifest, link the components with interface "
             "checking, and typecheck (optionally run) the result")
    p_lnk.add_argument("manifest",
                       help="manifest JSON file ('-' for stdin)")
    p_lnk.add_argument("--store", default=None, metavar="DIR",
                       help="artifact store directory (default: "
                            "$FUNTAL_STORE or ~/.cache/funtal)")
    p_lnk.add_argument("--validate", action="store_true",
                       help="translation-validate compiled components")
    p_lnk.add_argument("--run", action="store_true",
                       help="evaluate the linked program")
    p_lnk.add_argument("--fuel", type=int, default=30_000,
                       help="fuel per validation observation")
    p_lnk.add_argument("--run-fuel", type=int, default=None,
                       help="machine step budget for --run "
                            "(default 1,000,000)")
    p_lnk.add_argument("--seed", type=int, default=0,
                       help="validation input-generator seed")
    p_lnk.set_defaults(fn=cmd_link)

    p_lint = sub.add_parser(
        "lint", help="static lints over the program's components")
    p_lint.add_argument("file")
    p_lint.set_defaults(fn=cmd_lint)

    p_ex = sub.add_parser("examples", help="list or run paper examples")
    p_ex.add_argument("name", nargs="?")
    p_ex.add_argument("--trace", action="store_true")
    p_ex.add_argument("--run", action="store_true",
                      help="run every example sequentially (the one-"
                           "process baseline for 'funtal batch "
                           "--examples')")
    p_ex.set_defaults(fn=cmd_examples)

    p_tr = sub.add_parser(
        "trace",
        help="run a paper example under the observability layer and "
             "export the structured trace")
    p_tr.add_argument("example",
                      help="example name or figure alias (e.g. fig17)")
    p_tr.add_argument("--format", choices=("jsonl", "chrome", "table"),
                      default="table",
                      help="jsonl: one event per line; chrome: "
                           "chrome://tracing JSON; table: control-flow "
                           "table + crossing counters")
    p_tr.add_argument("--out", help="write to a file instead of stdout")
    _add_budget_args(p_tr)
    _add_engine_arg(p_tr)
    p_tr.set_defaults(fn=cmd_trace)

    p_st = sub.add_parser(
        "stats",
        help="print the metrics snapshot (counters / gauges / histograms)")
    p_st.add_argument("example", nargs="?",
                      help="optionally run this example under "
                           "instrumentation first")
    p_st.add_argument("--json", action="store_true")
    _add_budget_args(p_st)
    p_st.set_defaults(fn=cmd_stats)

    p_top = sub.add_parser(
        "top",
        help="run a paper example under the hot-code profiler and rank "
             "lambdas/blocks by self steps")
    p_top.add_argument("example",
                       help="example name or figure alias (e.g. fig17)")
    p_top.add_argument("--limit", type=int, default=20,
                       help="rows to print (default 20)")
    p_top.add_argument("--json", action="store_true",
                       help="print the full ProfileSnapshot as JSON")
    p_top.add_argument("--out",
                       help="also save the ProfileSnapshot artifact here")
    _add_budget_args(p_top)
    _add_engine_arg(p_top)
    p_top.set_defaults(fn=cmd_top)

    p_fl = sub.add_parser(
        "flame",
        help="run a paper example under the profiler and emit folded "
             "stacks (flamegraph.pl / speedscope input)")
    p_fl.add_argument("example",
                      help="example name or figure alias (e.g. fig17)")
    p_fl.add_argument("--out", help="write to a file instead of stdout")
    _add_budget_args(p_fl)
    _add_engine_arg(p_fl)
    p_fl.set_defaults(fn=cmd_flame)

    p_slo = sub.add_parser(
        "slo",
        help="run the paper examples on a worker pool and check "
             "serve.job.ms quantiles against thresholds (exit 7 on "
             "breach)")
    p_slo.add_argument("--workers", type=int, default=4)
    p_slo.add_argument("--repeat", type=int, default=3,
                       help="submissions of the example set (default 3)")
    p_slo.add_argument("--fuel", type=int, default=None)
    p_slo.add_argument("--timeout", type=float, default=None)
    p_slo.add_argument("--p50-ms", type=float, default=None,
                       help="breach when p50 latency exceeds this")
    p_slo.add_argument("--p95-ms", type=float, default=None,
                       help="breach when p95 latency exceeds this")
    p_slo.add_argument("--p99-ms", type=float, default=None,
                       help="breach when p99 latency exceeds this")
    p_slo.add_argument("--max-error-rate", type=float, default=None,
                       help="breach when failed/total exceeds this")
    p_slo.add_argument("--json", action="store_true")
    p_slo.set_defaults(fn=cmd_slo)

    p_srv = sub.add_parser(
        "serve",
        help="run the JSON-lines TCP evaluation service over a "
             "crash-isolated worker pool")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=4017)
    p_srv.add_argument("--workers", type=int, default=2)
    p_srv.add_argument("--cache-size", type=int, default=1024,
                       help="result-cache entries (0 disables caching)")
    p_srv.add_argument("--queue-size", type=int, default=256,
                       help="bounded pending queue (backpressure limit)")
    p_srv.add_argument("--timeout", type=float, default=30.0,
                       help="default per-job wall-clock seconds")
    p_srv.add_argument("--max-retries", type=int, default=2)
    p_srv.set_defaults(fn=cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit one job to a running funtal serve")
    p_sub.add_argument("file", nargs="?",
                       help="program file ('-' for stdin)")
    p_sub.add_argument("--kind", default="run",
                       choices=("parse", "typecheck", "run", "equiv"))
    p_sub.add_argument("--example", help="built-in example instead of FILE")
    p_sub.add_argument("--host", default="127.0.0.1")
    p_sub.add_argument("--port", type=int, default=4017)
    _add_budget_args(p_sub)
    _add_engine_arg(p_sub)
    p_sub.add_argument("--checkpoint", action="store_true",
                       help="run: suspend with a resumable snapshot on "
                            "fuel exhaustion instead of failing")
    p_sub.add_argument("--jit", action="store_true",
                       help="run: execute under the guarded JIT "
                            "(faults fall back to the interpreter)")
    p_sub.add_argument("--timeout", type=float, default=None,
                       help="per-job wall-clock seconds")
    p_sub.add_argument("--result-type", default="int")
    p_sub.add_argument("--trace", action="store_true")
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.add_argument("--type", help="equiv: the common F type")
    p_sub.add_argument("--right", help="equiv: right-hand program file")
    p_sub.add_argument("--no-cache", action="store_true")
    p_sub.add_argument("--trace-out",
                       help="capture the worker's spans and write the "
                            "stitched cross-process trace here")
    p_sub.add_argument("--format", choices=("jsonl", "chrome"),
                       default="jsonl",
                       help="--trace-out format (default jsonl)")
    p_sub.set_defaults(fn=cmd_submit)

    p_bat = sub.add_parser(
        "batch",
        help="run a .jsonl job file (or all paper examples) on a local "
             "worker pool")
    p_bat.add_argument("file", nargs="?",
                       help="jobs, one JSON object per line ('-' stdin)")
    p_bat.add_argument("--examples", action="store_true",
                       help="run every built-in paper example instead "
                            "of a file")
    p_bat.add_argument("--repeat", type=int, default=1,
                       help="with --examples: submit the set N times")
    _add_budget_args(p_bat)
    _add_engine_arg(p_bat)
    p_bat.add_argument("--workers", type=int, default=4)
    p_bat.add_argument("--cache-size", type=int, default=1024)
    p_bat.add_argument("--no-cache", action="store_true")
    p_bat.add_argument("--timeout", type=float, default=None)
    p_bat.add_argument("--max-retries", type=int, default=2)
    p_bat.add_argument("--out", help="write results here instead of stdout")
    p_bat.add_argument("--trace-out",
                       help="record the batch under the obs layer and "
                            "write the stitched cross-process trace here")
    p_bat.add_argument("--format", choices=("jsonl", "chrome"),
                       default="jsonl",
                       help="--trace-out format (default jsonl)")
    p_bat.set_defaults(fn=cmd_batch)

    p_ch = sub.add_parser(
        "chaos",
        help="run the paper examples under deterministic fault injection "
             "and assert every degradation path (see docs/resilience.md)")
    p_ch.add_argument("mode", nargs="?", choices=("drill",),
                      help="'drill' with --serve storms a live worker "
                           "pool (kills, hangs, corrupt envelopes, "
                           "store faults) and asserts zero lost jobs")
    p_ch.add_argument("--serve", action="store_true",
                      help="with 'drill': attack the serve fleet instead "
                           "of the in-process seams")
    p_ch.add_argument("--seed", type=int, default=0,
                      help="serve drill corpus/fault seed")
    p_ch.add_argument("--jobs", type=int, default=200,
                      help="serve drill corpus size")
    p_ch.add_argument("--workers", type=int, default=4,
                      help="serve drill pool size")
    p_ch.add_argument("--fault-rate", type=float, default=0.1,
                      help="serve drill share of jobs carrying a fault")
    p_ch.add_argument("--seeds", default="0,1,2",
                      help="comma-separated fault-plane seeds")
    p_ch.add_argument("--rate", type=float, default=0.05,
                      help="per-probe fault probability")
    p_ch.add_argument("--seams",
                      help="comma-separated seam subset (default: all)")
    p_ch.add_argument("--examples",
                      help="comma-separated example subset (default: all)")
    p_ch.add_argument("--fuel", type=int, default=None)
    p_ch.add_argument("--json", action="store_true")
    p_ch.set_defaults(fn=cmd_chaos)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceExhausted as err:
        # Deliberate single line + dedicated code: a tripped governor
        # (fuel, heap cells, stack depth) is the bounded machines'
        # verdict on divergence / runaway allocation, not an internal
        # error, so scripts must be able to tell them apart.
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_FUEL_EXHAUSTED
    except FunTALError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RecursionError:
        # The machines convert their own RecursionErrors to
        # StackDepthExhausted (handled above); one escaping here comes
        # from the recursive-descent parser or the pretty-printer on a
        # pathologically nested program.
        print(_TOO_DEEP, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
