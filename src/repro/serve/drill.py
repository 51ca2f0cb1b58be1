"""Seeded serve-fleet chaos drill: ``funtal chaos drill --serve``.

The classic chaos drill (:mod:`repro.resilience.chaos`) injects faults
*inside* one process and checks that errors stay structured.  This
drill attacks the layer above: a live :class:`~repro.serve.pool.
WorkerPool` under worker kills, hangs, corrupted result envelopes,
slow jobs, hostile inputs, and artifact-store I/O faults -- and
verifies the supervision invariant that matters in production:

    **no job is ever lost.**  Every submitted job resolves to a
    terminal result (``ok`` / ``error`` / ``crashed`` / ``timeout`` /
    ``overloaded`` / ``rejected`` / ``suspended``); none hangs forever
    and none vanishes.

The corpus is seeded and mixed:

* plain ``run`` / ``typecheck`` / ``parse`` jobs over the paper's
  example registry;
* the adversarial T components from :mod:`repro.adversarial`
  (hostile *inputs*, expected to resolve ``error``);
* ``link`` jobs against a real artifact store with ``store.io`` chaos
  armed (expected to succeed, possibly ``degraded``);
* checkpointed ``run`` jobs that crash their worker *after* shipping a
  snapshot (``crash-after-checkpoint``), so at least one job must
  finish via mid-run recovery on a different worker;
* a ``rate``-sized share of jobs carrying a ``crash`` / ``stall`` /
  ``corrupt`` / ``hang`` fault.

Every fault is an in-process :class:`~repro.resilience.chaos.Fault` on
``Job.fault``; the drill submits straight to the pool, because the wire
protocol cannot carry one.

The report carries everything the CI gate and the resilience benchmark
need: per-status counts, ``lost`` (must be 0), ``recovered`` (must be
>= 1), the jobs turned away by cause (``shed``), breaker/quarantine
activity, and the pool's MTTR summary.
"""

from __future__ import annotations

import collections
import random
import shutil
import tempfile
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.adversarial import adversarial_jobs
from repro.resilience.chaos import Fault
from repro.serve.pool import WorkerPool
from repro.serve.protocol import Job, JobOptions, JobResult
from repro.serve.supervisor import SupervisorConfig

__all__ = ["run_serve_drill", "build_corpus", "shed_tally", "SHED_CAUSES"]

#: How an overloaded pool turns a job away: ``error_type`` -> cause.
SHED_CAUSES = {"DeadlineExpired": "deadline", "QueueFull": "queue_full",
               "BreakerOpen": "breaker_open"}

#: Examples cheap enough to run hundreds of times in a drill.
_RUN_EXAMPLES = ("fact-f", "fact-t", "two-blocks-1", "two-blocks-2",
                 "fig17", "jit")

_LINK_MANIFEST = (
    '{"components": {'
    '"double": "lam (x: int). (x + x)", '
    '"quad": "lam (x: int). double (double x)"}, '
    '"main": "quad 7"}'
)


def build_corpus(seed: int, jobs: int, rate: float,
                 store_dir: Optional[str] = None) -> List[Job]:
    """The seeded mixed job list.  Deterministic in ``(seed, jobs,
    rate, store_dir)`` up to the store directory name."""
    rng = random.Random(seed)
    # Hostile inputs: adversarial components must resolve ``error``.
    corpus: List[Job] = adversarial_jobs(ids_prefix=f"d{seed}-adv")
    # Guaranteed recovery probes: crash after the first shipped
    # checkpoint, every attempt, until the pool resumes from the
    # snapshot on a sibling (the resume rewrite drops the fault).
    # They go last: shed-oldest evicts the oldest queued job on each
    # submit at capacity, and nothing is submitted after them.
    probes = [Job("run", id=f"d{seed}-recover-{i}", example="fact-f",
                  options=JobOptions(checkpoint=True, checkpoint_every=8),
                  fault=Fault("crash-after-checkpoint"))
              for i in range(3)]

    hangs = 0
    for i in range(jobs - len(corpus) - len(probes)):
        jid = f"d{seed}-{i}"
        kind_roll = rng.random()
        if kind_roll < 0.08 and store_dir is not None:
            job = Job("link", id=jid, source=_LINK_MANIFEST,
                      options=JobOptions(store=store_dir, run=True),
                      fault=Fault("store.io", rate=rate,
                                  seed=seed * 10_007 + i))
        elif kind_roll < 0.16:
            job = Job("typecheck", id=jid,
                      example=rng.choice(("fact-f", "fact-t")))
        elif kind_roll < 0.22:
            job = Job("parse", id=jid, example=rng.choice(_RUN_EXAMPLES))
        elif kind_roll < 0.34:
            job = Job("run", id=jid, example="fact-f",
                      options=JobOptions(checkpoint=True,
                                         checkpoint_every=16))
        else:
            job = Job("run", id=jid, example=rng.choice(_RUN_EXAMPLES))

        if rng.random() < rate:
            fault = rng.random()
            if fault < 0.35:
                job.fault = Fault("crash")
            elif fault < 0.55 and hangs < 3:
                # SIGSTOP storms are the slowest fault to clear
                # (heartbeat misses x interval per attempt), so cap
                # them; the kill path is still exercised every drill.
                job.fault = Fault("hang")
                hangs += 1
            elif fault < 0.80:
                job.fault = Fault("corrupt")
            else:
                job.fault = Fault("stall",
                                  seconds=rng.choice((0.05, 0.15, 6.0)))
        corpus.append(job)
    return corpus + probes


def shed_tally(results: Iterable[JobResult]) -> Dict[str, int]:
    """How many of ``results`` the pool turned away, by cause."""
    causes = collections.Counter(SHED_CAUSES.get(r.error_type)
                                 for r in results)
    return {cause: causes[cause] for cause in SHED_CAUSES.values()}


def run_serve_drill(seed: int = 0, jobs: int = 200, workers: int = 4,
                    rate: float = 0.1, *,
                    default_timeout: float = 3.0,
                    queue_size: int = 64,
                    store_dir: Optional[str] = None) -> Dict[str, Any]:
    """Run one seeded drill; returns the report dict (see module doc).

    ``store_dir`` overrides the throwaway artifact store used by link
    jobs (a temp directory by default, removed afterwards).
    """
    own_store = store_dir is None
    if own_store:
        store_dir = tempfile.mkdtemp(prefix="funtal-drill-store-")

    cfg = SupervisorConfig(
        heartbeat_interval=0.2, heartbeat_misses=3,
        restart_budget=max(8, jobs // 8), restart_window=30.0,
        restart_backoff=0.05, restart_backoff_max=0.5,
        breaker_threshold=max(12, jobs // 4), breaker_window=10.0,
        breaker_cooldown=0.5, shed_policy="shed-oldest")

    corpus = build_corpus(seed, jobs, rate, store_dir=store_dir)
    statuses: "collections.Counter[str]" = collections.Counter()
    recovered = degraded = 0
    lost: List[str] = []
    t0 = time.monotonic()
    try:
        with WorkerPool(workers, cache=None, max_retries=2,
                        default_timeout=default_timeout,
                        queue_size=queue_size, retry_backoff=0.02,
                        supervisor=cfg) as pool:
            # Submit through a sliding window a bit wider than the
            # bounded queue: backpressure (shed-oldest) triggers under
            # bursts but does not swallow the whole corpus the way
            # dumping all N jobs at once would.
            window = queue_size + workers * 4
            tickets: List[Any] = []
            # Worst case is a hang storm: each hung attempt costs
            # ``misses * interval`` to detect, serialized per worker.
            budget = max(60.0, jobs * default_timeout / workers)
            deadline = time.monotonic() + budget
            for job in corpus:
                while sum(1 for t in tickets if not t.done) >= window:
                    time.sleep(0.01)
                    if time.monotonic() > deadline:
                        break
                tickets.append(pool.submit(job))
            for ticket in tickets:
                result = ticket.wait(max(0.1, deadline - time.monotonic()))
                if result is None:
                    lost.append(ticket.job.id)
                    continue
                statuses[result.status] += 1
                out = result.output or {}
                if out.get("recovered"):
                    recovered += 1
                if out.get("degraded"):
                    degraded += 1
            stats = pool.stats()
    finally:
        if own_store:
            shutil.rmtree(store_dir, ignore_errors=True)

    sup = stats.get("supervisor", {})
    return {
        "seed": seed,
        "jobs": len(corpus),
        "workers": workers,
        "fault_rate": rate,
        "duration_s": round(time.monotonic() - t0, 3),
        "statuses": dict(sorted(statuses.items())),
        "lost": len(lost),
        "lost_ids": lost[:10],
        "recovered": recovered,
        "degraded": degraded,
        "shed": shed_tally(t.result for t in tickets if t.done),
        "quarantined": sup.get("quarantine", {}).get("hits", 0),
        "mttr_ms": sup.get("mttr_ms", {}),
        "breaker": sup.get("breaker", {}),
        "quarantine": sup.get("quarantine", {}),
        "restarts": sup.get("restarts", {}),
    }
