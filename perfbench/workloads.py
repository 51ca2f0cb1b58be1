"""The four workloads: inputs, reference answers, and the timed loops.

Each workload builds its inputs from a seeded ``random.Random`` in
:meth:`setup`, computes every op's expected answer on the paper's
reference machines (the ``subst`` F stepper and the ``ref`` T machine, or
a closed form), and runs every op once untimed (:meth:`warm`).  The
program under test never supplies its own reference.

* ``build`` -- one op is one program through parse, typecheck, compile
  (cold cache), translation validation and one run of the compiled term;
* ``boundary-run`` -- one op is one ``FTMachine().evaluate`` of an image
  compiled during set-up, so every op crosses the F/T boundary;
* ``t-loop`` -- one op is one T-dominated program on the fast T engine;
* ``serve-mix`` -- one op is one job through a two-worker pool, driven
  by one client thread that keeps one job in flight.
"""

from __future__ import annotations

import itertools
import queue
import random
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from repro.compile.pipeline import clear_compile_cache, compile_term
from repro.compile.validate import validate_compilation
from repro.f.syntax import App, BinOp, FInt, IntE, Lam, Var
from repro.f.typecheck import typecheck as f_typecheck
from repro.ft.machine import FTMachine
from repro.ft.typecheck import check_ft_expr
from repro.papers_examples import resolve_example
from repro.papers_examples.fig11_jit import build_jit, build_source
from repro.papers_examples.fig17_factorial import (
    build_count_t, build_fact_f, build_fact_t,
)
from repro.resilience.budget import Budget
from repro.resilience.safety_net import Quarantine
from repro.serve import Job, ResultCache, WorkerPool
from repro.serve.protocol import JobOptions
from repro.stdlib.prelude import compose, twice
from repro.surface import parse_program
from repro.tal import fast
from repro.tal.equality import clear_equality_cache
from repro.tal.subst import clear_subst_caches
from repro.tal.syntax import (
    Call, Component, Halt, HCode, Loc, Mv, NIL_STACK, QEnd, RegFileTy,
    Salloc, seq, Sst, TInt, WInt, WLoc,
)

import gen
from layers import UNTRACED, hit_ratio

FUEL = 10_000_000


def _reference_machine() -> FTMachine:
    """The paper's reference semantics: ``subst`` F stepper, ``ref`` T."""
    return FTMachine(budget=Budget(fuel=FUEL), engine="subst",
                     tal_engine="ref")


def reference_value(term) -> str:
    """The F value of ``term`` on the reference machines."""
    return str(_reference_machine().evaluate(term))


def reference_steps(term) -> int:
    """Reference-machine fuel for ``term``: the stratification weight
    that keeps fuel per op steady from seed to seed."""
    machine = _reference_machine()
    machine.evaluate(term)
    return machine.budget.fuel_used


def compiled_size(term) -> int:
    """Length of the compiled image's text: the stratification weight
    that keeps ``build`` latency steady from seed to seed.  Compile and
    validation time grow with the code generated; over generated programs
    this tracks build time far better (correlation 0.9) than reference
    steps do (0.6)."""
    return len(str(compile_term(term).wrapped))


def reference_halt(comp) -> str:
    """The halt word of a T-outside component on the reference machines."""
    return str(_reference_machine().run_component(comp).word)


def combinator():
    """``twice (twice (compose inc dbl)) 1`` -- closures all the way down."""
    inc = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
    dbl = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(2)))
    step = compose(inc, dbl, FInt(), FInt(), FInt())
    return App(twice(twice(step, FInt()), FInt()), (IntE(1),))


def paper_text(node) -> Tuple[str, object]:
    """A closed paper program as surface text, checked to round-trip."""
    text = str(node)
    if parse_program(text) != node:
        raise RuntimeError(f"paper program does not round-trip: {text}")
    return text, node


class Op:
    """One unit of timed work: ``run(layers) -> (answer, fuel)``."""

    __slots__ = ("label", "run", "expected")

    def __init__(self, label: str, run: Callable, expected: str):
        self.label = label
        self.run = run
        self.expected = expected


class Phase:
    """What one timed phase observed, and the figures reported from it.

    Latencies are kept per op slot, the op's position in one pass over
    the ops.  Every op, in-process or served, is a deterministic program
    or job run many times in a run, one at a time, so an op's latency is
    the best of its repetitions and throughput is the reciprocal of the
    mean best latency: the host this runs on is shared and its speed
    swings by a third within seconds, and the best repetition is what
    repeats from run to run.  A tail over every sample would measure the
    host's scheduler hiccups rather than the program.
    """

    def __init__(self, slots: int = 0) -> None:
        self.per_slot: List[List[float]] = [[] for _ in range(slots)]
        self.attempted = 0
        self.fuel = 0
        self.failed = 0
        self.failures: List[str] = []
        self.elapsed_s = 0.0
        #: serve-mix only: executor and pool-overhead times of the jobs
        #: that were not cache hits, and the cache's hit ratio.
        self.serve: Dict[str, object] = {}

    def record(self, slot: int, latency_ms: float) -> None:
        self.per_slot[slot].append(latency_ms)
        self.attempted += 1

    def fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{label}: {detail}")

    def latencies(self) -> List[float]:
        """Each op's best latency: the population the percentiles are
        taken over."""
        return [min(s) for s in self.per_slot if s]

    def ops_per_s(self) -> float:
        best = self.latencies()
        return 1000.0 * len(best) / sum(best)

    def mean_latency_ms(self) -> float:
        """Mean over every sample (the traced run's denominator)."""
        return sum(sum(s) for s in self.per_slot) / self.attempted


def percentile(values: List[float], p: int) -> float:
    """The ``p``-th percentile (1..99) of ``values``."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _run_op(op: Op, layers) -> Tuple[str, int]:
    try:
        return op.run(layers)
    except Exception as err:  # a crashing op is a failed op, not a crash
        traceback.print_exc(file=sys.stderr)
        return f"{type(err).__name__}: {err}", 0


def reset_caches() -> None:
    """Drop every in-process cache the layers expose, so each set-up
    repetition starts cold."""
    clear_compile_cache()
    clear_subst_caches()
    clear_equality_cache()
    fast.clear_fast_caches()


class InProcess:
    """A workload whose ops run in the benchmark process."""

    name = ""
    ops: List[Op]
    skipped = 0

    def warm(self) -> Phase:
        phase = Phase()
        for op in self.ops:
            answer, used = _run_op(op, UNTRACED)
            if answer != op.expected:
                phase.fail(op.label, f"got {answer!r}, expected "
                                     f"{op.expected!r} (warm-up)")
        return phase

    def measure(self, seconds: float, layers=UNTRACED) -> Phase:
        """Run passes over the ops, one op at a time, for ``seconds``."""
        phase = Phase(len(self.ops))
        start = time.perf_counter()
        end = start + seconds
        slots = itertools.cycle(enumerate(self.ops))
        while not phase.attempted or time.perf_counter() < end:
            slot, op = next(slots)
            t0 = time.perf_counter_ns()
            answer, used = _run_op(op, layers)
            phase.record(slot, (time.perf_counter_ns() - t0) / 1e6)
            phase.fuel += used
            if answer != op.expected:
                phase.fail(op.label,
                           f"got {answer!r}, expected {op.expected!r}")
        phase.elapsed_s = time.perf_counter() - start
        return phase

    def close(self) -> None:
        return None


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _build_op(text: str, layers) -> Tuple[str, int]:
    node = layers.call("surface.parse", parse_program, text)
    ty, _ = layers.call("ft.typecheck", check_ft_expr, node)
    clear_compile_cache()
    result = layers.call("compile.compile", compile_term, node)
    layers.count("compile.blocks", result.block_count())
    report = layers.call("compile.validate", validate_compilation, result,
                         quarantine=Quarantine())
    if not report.ok:
        return f"validation failed: {report.failure}", 0
    machine = FTMachine(budget=Budget(fuel=FUEL))
    value = layers.call("ft.machine.evaluate", machine.evaluate,
                        result.wrapped)
    return f"{ty} = {value}", machine.budget.fuel_used


class Build(InProcess):
    """Whole-F programs through the ``funtal compile --validate --run``
    path.  Recursive programs are left out: one ``fact-f`` validation
    alone would swamp the compile share."""

    name = "build"
    GENERATED = 64
    POOL = 320

    def setup(self, rng: random.Random) -> None:
        draw = gen.draw_f(rng, self.POOL, self.GENERATED, compiled_size)
        self.skipped = draw.skipped
        # Two copies of the combinator, the costliest program, put the
        # p99 rank between them rather than next to a generated program.
        programs = draw.programs + [paper_text(build_source())] \
            + [paper_text(combinator())] * 2
        self.ops = [
            Op(text, lambda layers, t=text: _build_op(t, layers),
               f"{f_typecheck(node)} = {reference_value(node)}")
            for text, node in programs]
        rng.shuffle(self.ops)


# ---------------------------------------------------------------------------
# boundary-run
# ---------------------------------------------------------------------------

def _evaluate_op(image, blocks: int, tal_engine: Optional[str] = None):
    def run(layers) -> Tuple[str, int]:
        layers.count("compile.blocks", blocks)
        machine = FTMachine(budget=Budget(fuel=FUEL), tal_engine=tal_engine)
        value = layers.call("ft.machine.evaluate", machine.evaluate, image)
        return str(value), machine.budget.fuel_used
    return run


class BoundaryRun(InProcess):
    """Precompiled recursive and higher-order images plus the mixed
    Fig 11 and Fig 17 programs, each run on the default engines."""

    name = "boundary-run"
    #: ``fact_f`` arguments and copies per pass of the fixed paper
    #: programs.  With 80 generated programs, the p90 rank falls inside
    #: the combinator's copies and the p99 rank between the two copies of
    #: ``fact_f 3``, so neither sits on an edge between programs of
    #: different cost.
    FACT_NS = (1, 2, 3, 3)
    GENERATED = 80
    POOL = 400
    COPIES = {"combinator": 8, "fig11 jit": 2, "fig17": 2}

    def setup(self, rng: random.Random) -> None:
        draw = gen.draw_f(rng, self.POOL, self.GENERATED, reference_steps)
        self.skipped = draw.skipped
        fact_f = compile_term(build_fact_f())
        ops = []
        for n in self.FACT_NS:
            ops.append(Op(f"fact_f {n}",
                          _evaluate_op(App(fact_f.wrapped, (IntE(n),)),
                                       fact_f.block_count()),
                          reference_value(App(build_fact_f(), (IntE(n),)))))
        paper = [("combinator", combinator(), True),
                 ("fig11 jit", build_jit(), False),
                 ("fig17", resolve_example("fig17")[1](), False)]
        for label, source, compiled in paper:
            image, blocks = source, 0
            if compiled:
                result = compile_term(source)
                image, blocks = result.wrapped, result.block_count()
            expected = reference_value(source)
            ops += [Op(label, _evaluate_op(image, blocks), expected)
                    for _ in range(self.COPIES[label])]
        for text, node in draw.programs:
            result = compile_term(node)
            ops.append(Op(text, _evaluate_op(result.wrapped,
                                             result.block_count()),
                          reference_value(node)))
        rng.shuffle(ops)
        self.ops = ops


# ---------------------------------------------------------------------------
# t-loop
# ---------------------------------------------------------------------------

def _component_op(comp):
    def run(layers) -> Tuple[str, int]:
        machine = FTMachine(budget=Budget(fuel=FUEL), tal_engine="fast")
        halted = layers.call("ft.machine.evaluate", machine.run_component,
                             comp)
        return str(halted.word), machine.budget.fuel_used
    return run


def count_driver(n: int) -> Component:
    """``count_t n`` run T-outside: the loop blocks of
    :func:`build_count_t`, entered by a ``call`` with ``n`` on the stack
    and a return continuation that halts.  No boundary is crossed."""
    loop = build_count_t().body.fn.comp
    entry = loop.heap[0][0]
    done, end = Loc("ldone"), QEnd(TInt(), NIL_STACK)
    halt = HCode((), RegFileTy.of(r1=TInt()), NIL_STACK, end,
                 seq(Halt(TInt(), NIL_STACK, "r1")))
    return Component(
        seq(Mv("r1", WInt(n)), Salloc(1), Sst(0, "r1"), Mv("ra", WLoc(done)),
            Call(WLoc(entry), NIL_STACK, end)),
        loop.heap + ((done, halt),))


class TLoop(InProcess):
    """T-dominated programs on the fast T engine: the ``count_t`` loop at
    stratified seeded sizes, run T-outside; ``fact-t 6`` called from F;
    and generated straight-line components."""

    name = "t-loop"
    COUNTS = 24
    COUNT_RANGE = (300, 3000)
    FACT_T_COPIES = 2
    COMPONENTS = 8
    POOL = 40
    LENGTHS = (60, 160)

    def setup(self, rng: random.Random) -> None:
        lo, hi = self.COUNT_RANGE
        sizes = [int(lo + (hi - lo) * (i + rng.random()) / self.COUNTS)
                 for i in range(self.COUNTS)]
        ops = [Op(f"count_t {n}", _component_op(count_driver(n)),
                  str(WInt(n)))                      # count_t n = n
               for n in sizes]
        ops += [Op("fact-t 6",
                   _evaluate_op(App(build_fact_t(), (IntE(6),)), 0, "fast"),
                   str(IntE(720)))                   # 6! = 720
                for _ in range(self.FACT_T_COPIES)]
        draw = gen.draw_t(rng, self.POOL, self.COMPONENTS, self.LENGTHS)
        self.skipped = draw.skipped
        ops += [Op(text, _component_op(comp), reference_halt(comp))
                for text, comp in draw.programs]
        rng.shuffle(ops)
        self.ops = ops


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

class ServeJob:
    """A job with the output field and value its answer must carry."""

    __slots__ = ("job", "field", "expected")

    def __init__(self, job: Job, field: str, expected: str):
        self.job = job
        self.field = field
        self.expected = expected


class ServeMix:
    """A closed loop against ``WorkerPool(workers=2)``: one client thread
    submits a job and waits for its reply before it submits the next, so
    the client and one worker are busy at a time, no more than the two
    CPUs this was written on.  Every fifth job repeats one of a few
    cacheable jobs (result cache on, answered at admission); the rest set
    ``no_cache``."""

    name = "serve-mix"
    WORKERS = 2
    GENERATED = 40
    POOL = 200
    #: One cycle of job kinds.  Every third ``run`` job and every fourth
    #: ``typecheck`` job names a paper example; the rest send generated
    #: sources.
    KINDS = ("run", "run", "typecheck", "parse", "compile")
    CYCLES = 40
    CACHEABLE = 10
    REPEATS = 5
    RUN_EXAMPLES = ("jit", "fig17", "fact-t", "fact-f", "two-blocks-1",
                    "two-blocks-2", "jit-source")
    #: Pure-F examples, whose type the plain F typechecker can give.
    F_EXAMPLES = ("jit-source", "fact-f")

    def __init__(self) -> None:
        self.pool: Optional[WorkerPool] = None
        self.ops: List[ServeJob] = []
        self.skipped = 0

    def setup(self, rng: random.Random) -> None:
        draw = gen.draw_f(rng, self.POOL, self.GENERATED, reference_steps)
        self.skipped = draw.skipped
        sources = list(draw.programs)
        rng.shuffle(sources)
        generated = itertools.cycle(sources)
        examples = itertools.cycle(self.RUN_EXAMPLES)
        f_examples = itertools.cycle(self.F_EXAMPLES)
        made: Dict[str, int] = dict.fromkeys(self.KINDS, 0)
        example_values: Dict[str, str] = {}
        f_types: Dict[str, str] = {}

        def example_value(name: str) -> str:
            if name not in example_values:
                example_values[name] = reference_value(
                    resolve_example(name)[1]())
            return example_values[name]

        def f_type(name: str) -> str:
            if name not in f_types:
                f_types[name] = str(f_typecheck(resolve_example(name)[1]()))
            return f_types[name]

        def make(kind: str, no_cache: bool) -> ServeJob:
            n = made[kind]
            made[kind] += 1
            job_id = f"{kind}-{n}"
            opts = JobOptions(no_cache=no_cache)
            if kind == "run" and n % 3 == 0:
                name = next(examples)
                return ServeJob(Job(kind, id=job_id, example=name,
                                    options=opts),
                                "value", example_value(name))
            if kind == "typecheck" and n % 4 == 0:
                name = next(f_examples)
                return ServeJob(Job(kind, id=job_id, example=name,
                                    options=opts), "type", f_type(name))
            text, node = next(generated)
            job = Job(kind, id=job_id, source=text, options=opts)
            if kind == "run":
                return ServeJob(job, "value", reference_value(node))
            if kind == "parse":
                return ServeJob(job, "pretty", text)
            return ServeJob(job, "type", str(f_typecheck(node)))

        fresh = [make(kind, True)
                 for _ in range(self.CYCLES) for kind in self.KINDS]
        cacheable = [make(self.KINDS[i % len(self.KINDS)], False)
                     for i in range(self.CACHEABLE)]
        self.distinct = fresh + cacheable
        self.ops = fresh + cacheable * self.REPEATS
        rng.shuffle(self.ops)
        self.pool = WorkerPool(workers=self.WORKERS, cache=ResultCache())

    def warm(self) -> Phase:
        """Run every distinct job once; this also fills the result cache
        for the cacheable jobs."""
        phase = Phase()
        results = self.pool.run_batch([s.job for s in self.distinct])
        for spec, result in zip(self.distinct, results):
            self._check(phase, spec, result)
        return phase

    @staticmethod
    def _check(phase: Phase, spec: ServeJob, result) -> None:
        if not result.ok:
            phase.fail(spec.job.id, f"{result.status}: {result.error}")
            return
        answer = result.output.get(spec.field)
        if answer != spec.expected:
            phase.fail(spec.job.id, f"{spec.field} {answer!r}, expected "
                                    f"{spec.expected!r}")

    def measure(self, seconds: float, layers=UNTRACED) -> Phase:
        """The closed loop.  Latency runs from ``submit`` to the ticket's
        done callback, which hands the result back to the client thread.
        ``layers`` is unused: the per-layer split of a job comes from its
        ``JobResult``."""
        pool = self.pool
        jobs = self.ops
        done: "queue.SimpleQueue" = queue.SimpleQueue()
        phase = Phase(len(jobs))
        exec_ms: List[float] = []
        overhead_ms: List[float] = []
        cache_before = pool.cache.stats()
        start = time.perf_counter()
        end = start + seconds
        for slot in itertools.cycle(range(len(jobs))):
            if phase.attempted and time.perf_counter() >= end:
                break
            t0 = time.perf_counter_ns()
            pool.submit(jobs[slot].job).add_done_callback(
                lambda r, s=t0: done.put(((time.perf_counter_ns() - s) / 1e6,
                                          r)))
            latency, result = done.get(timeout=120)
            phase.record(slot, latency)
            phase.fuel += int(result.output.get("steps", 0) or 0)
            self._check(phase, jobs[slot], result)
            if not result.cached:
                exec_ms.append(result.duration_ms)
                overhead_ms.append(latency - result.duration_ms)
        phase.elapsed_s = time.perf_counter() - start
        phase.serve = {
            "exec_ms": exec_ms,
            "overhead_ms": overhead_ms,
            "busy_ratio": sum(exec_ms) / (phase.elapsed_s * 1e3
                                          * self.WORKERS),
            "cache_hit_ratio": hit_ratio(cache_before, pool.cache.stats()),
        }
        return phase

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


WORKLOADS = {cls.name: cls for cls in (Build, BoundaryRun, TLoop, ServeMix)}
