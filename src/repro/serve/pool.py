"""A crash-isolated, supervised multiprocessing worker pool.

Architecture: each worker is a separate OS process connected to the pool
by its own duplex :func:`multiprocessing.Pipe` pair -- one pipe for jobs
and results, one for heartbeats.  A single *manager* thread owns all
worker state and multiplexes a persistent :mod:`selectors` instance over

* every worker's job pipe end (results and progress arriving),
* every worker's heartbeat pipe end (pongs arriving),
* every worker's process *sentinel* (death detection, even when the pipe
  stays open because a sibling inherited a dup of it), and
* a self-kick socket written by :meth:`WorkerPool.submit` (so dispatch
  latency is not bounded by the poll interval).

**Job batching.**  Paper-example jobs run in well under a millisecond, so
per-job round-trips would leave the manager thread as the bottleneck.
Dispatch therefore sends *chunks*: an idle worker receives up to
``chunk_max`` jobs in one message (sized ``ceil(pending / idle)``, so a
shallow queue still gets single-job latency) and executes them in order,
streaming each result back individually.  Streaming keeps fault blame
precise: the manager tracks the worker's in-flight FIFO, the head of
which is by construction the job being executed right now.

Fault model -- the pool survives anything a job does to its worker
(tests and drills stage each fault with an in-process ``Job.fault``,
which the worker loop applies; the wire protocol cannot carry one):

* **crash** (``os._exit``, segfault, unpicklable explosion): the process
  sentinel fires, the worker is reaped and respawned;
* **hang** (infinite loop, a ``stall`` fault): the head job's wall-clock
  deadline passes (the deadline re-arms as each result arrives), the
  worker is killed, reaped, and respawned;
* **wedge** (``SIGSTOP``, kernel-level stall): independent of any job
  deadline, the manager pings each worker's heartbeat pipe every
  ``heartbeat_interval`` seconds; a worker silent for
  ``heartbeat_misses`` intervals is declared hung and replaced;
* the *head* job -- the culprit -- is retried with exponential backoff up
  to ``max_retries`` extra dispatches, then reported failed with status
  ``crashed``/``timeout``; its chunk-mates never started, so they are
  requeued without touching their retry budgets.  The pool itself never
  goes down.

Supervision policy (:mod:`repro.serve.supervisor`) layers on top:

* **restart budgets** -- a slot that keeps dying respawns with
  exponential backoff plus jitter instead of hot-looping fork/exec;
  every detection-to-respawn interval is recorded as MTTR
  (``serve.recovery.mttr.ms``);
* **circuit breaker** -- worker-fatal attempts are charged to the job's
  *kind*; past a threshold the kind is refused (``overloaded`` with
  ``retry_after_ms``), except ``run`` jobs requesting the JIT, which
  *degrade* to the interpreter tier instead when the ``compile``
  breaker is the open one;
* **quarantine** -- a job whose retry budget died fatally is
  quarantined by :func:`~repro.serve.supervisor.job_fault_key` (its
  ``Job.fault`` included), so resubmitting a poison job cannot keep
  killing workers;
* **checkpoint recovery** -- ``options.checkpoint_every`` makes the
  executor stream progress snapshots; when the worker dies mid-job the
  retry is rewritten into a ``resume`` from the last checkpoint, so the
  job finishes on a *sibling* instead of restarting from scratch
  (``serve.recovery.resumed`` vs ``.restarted``).

Backpressure: the pending queue is bounded (``queue_size``).  Under the
default ``"reject"`` policy ``submit`` either blocks or raises
:class:`QueueFull` (``block=False``) carrying a load-derived
``retry_after_ms``; under ``"shed-oldest"`` the oldest pending job is
evicted as an ``overloaded`` result to admit the new one.  Jobs carrying
``options.deadline_ms`` are shed (status ``timeout``) if still queued
when the deadline passes -- an expired job must not waste a worker.

A :class:`~repro.serve.cache.ResultCache` can be attached; ``submit``
then resolves content-addressed hits instantly and successful results are
inserted on completion (degraded and recovered results are *not*
cached).  Instrumentation (when :mod:`repro.obs` is enabled):
``serve.jobs.*`` / ``serve.worker.*`` / ``serve.recovery.*`` /
``serve.shed.*`` / ``serve.breaker.*`` / ``serve.quarantine.*``
counters, a ``serve.queue.depth`` gauge, ``serve.job.ms`` /
``serve.recovery.mttr.ms`` histograms, and one
``serve.job`` span per job covering submit -> resolve.
"""

from __future__ import annotations

import collections
import contextlib
import multiprocessing
import os
import select
import selectors
import signal
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.caching import Quarantine
from repro.errors import PoolClosed, QueueFull
from repro.obs import events as obs_events
from repro.obs.distributed import new_trace_id, stitch_envelope
from repro.obs.events import OBS
from repro.serve.cache import ResultCache
from repro.serve.protocol import Job, JobOptions, JobResult
from repro.serve.supervisor import (
    CircuitBreaker, RestartTracker, SupervisorConfig, job_fault_key,
)

__all__ = ["WorkerPool", "Ticket", "PoolClosed", "QueueFull",
           "SupervisorConfig", "DEFAULT_TIMEOUT"]

#: Per-job wall-clock budget when neither the job nor the pool sets one.
DEFAULT_TIMEOUT = 30.0


class Ticket:
    """A future for one submitted job."""

    __slots__ = ("job", "attempts", "not_before", "start_ns", "span_id",
                 "deadline_at", "checkpoint", "recovering", "degrade",
                 "_event", "_lock", "_result", "_callbacks")

    def __init__(self, job: Job):
        self.job = job
        self.attempts = 0           # execution attempts charged so far
        self.not_before = 0.0       # backoff gate (monotonic seconds)
        self.start_ns = time.perf_counter_ns()
        self.deadline_at: Optional[float] = None  # admission deadline
        #: Last progress snapshot shipped by a worker mid-run
        #: (``{"snapshot", "spent", "remaining", "worker"}``); a retry
        #: after worker death resumes from here instead of restarting.
        self.checkpoint: Optional[Dict[str, Any]] = None
        self.recovering = False     # current dispatch is a resume rewrite
        self.degrade = False        # dispatch with the JIT tier disabled
        # Pre-allocate the serve.job span id while a trace is being
        # recorded, so worker-side spans can be stitched under it.
        self.span_id = next(obs_events._span_ids) \
            if OBS.enabled and OBS.bus.active else 0
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._result: Optional[JobResult] = None
        self._callbacks: List[Callable[[JobResult], None]] = []

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def result(self) -> Optional[JobResult]:
        return self._result

    def wait(self, timeout: Optional[float] = None) -> Optional[JobResult]:
        """Block until resolved; None only if ``timeout`` elapses."""
        self._event.wait(timeout)
        return self._result

    def add_done_callback(self, fn: Callable[[JobResult], None]) -> None:
        """Run ``fn(result)`` on resolution (immediately if already
        done).  Callbacks fire on the resolving thread -- keep them
        short and thread-safe (e.g. ``loop.call_soon_threadsafe``)."""
        with self._lock:
            if self._result is None:
                self._callbacks.append(fn)
                return
        fn(self._result)

    def _resolve(self, result: JobResult) -> None:
        with self._lock:
            self._result = result
            callbacks, self._callbacks = self._callbacks, []
        self._event.set()
        for fn in callbacks:
            fn(result)

    def _timeout_for(self, default: float) -> float:
        return self.job.options.timeout or default


class _Worker:
    """Manager-thread-private record of one live worker process.

    ``inflight`` is the FIFO of tickets dispatched to this worker; the
    head is the job the worker is executing *right now* (it streams
    results back in order), so crash/timeout blame lands exactly there.
    """

    __slots__ = ("wid", "proc", "conn", "readable", "hb_conn", "inflight",
                 "deadline", "last_pong", "ping_sent")

    def __init__(self, wid: int, proc, conn, hb_conn):
        self.wid = wid
        self.proc = proc
        self.conn = conn
        # A poller over the result pipe alone: one non-blocking syscall
        # per readiness check, where ``conn.poll()`` builds and closes a
        # selector on every call.
        self.readable = select.poll()
        self.readable.register(conn.fileno(), select.POLLIN)
        self.hb_conn = hb_conn
        self.inflight: "collections.deque[Ticket]" = collections.deque()
        self.deadline = 0.0
        self.last_pong = time.monotonic()
        self.ping_sent = False


def _arm_fault(fault):
    """Act on a job's :class:`~repro.resilience.chaos.Fault` before the
    job runs; returns the context to run it under."""
    from repro.resilience.chaos import SEAMS, FaultPlane

    if fault.kind == "stall":
        time.sleep(fault.seconds)
    elif fault.kind == "crash":
        # Simulate a segfault: bypass all exception handling and die.
        os._exit(23)
    elif fault.kind == "hang" and hasattr(signal, "SIGSTOP"):
        # Freeze the whole process (heartbeat thread included): only
        # the manager's hung-worker detection can clear this.
        os.kill(os.getpid(), signal.SIGSTOP)
    elif fault.kind in SEAMS:
        return FaultPlane(seed=fault.seed, rate=fault.rate,
                          seams=[fault.kind])
    return contextlib.nullcontext()


def _worker_main(conn, hb_conn) -> None:
    """The worker loop: recv a chunk of job dicts, execute in order,
    stream one result dict back per job (plus ``__progress__`` records
    for checkpointing jobs), applying any ``"fault"`` entry."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.serve.executor import execute_job
    from repro.serve.protocol import Job, JobResult, ProtocolError

    def _echo() -> None:
        # Heartbeat echo: proof the *process* is schedulable.  A worker
        # busy in a long pure-Python job still answers (the GIL
        # rotates between threads), but a SIGSTOP'd or wedged process
        # goes silent and the manager declares it hung.
        while True:
            try:
                hb_conn.recv()
                hb_conn.send(os.getpid())
            except (EOFError, OSError):
                return

    threading.Thread(target=_echo, name="funtal-worker-hb",
                     daemon=True).start()

    while True:
        try:
            chunk = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if chunk is None:
            break
        for msg in chunk:
            fault = msg.pop("fault", None)
            kind = fault.kind if fault is not None else None
            if kind == "corrupt":
                # Ship a garbage result envelope.  The manager cannot
                # trust the stream afterwards, so this costs the worker
                # its life (the job reads as crashed).
                try:
                    conn.send({"id": msg.get("id", ""),
                               "status": "\x00garbage"})
                except (BrokenPipeError, EOFError, OSError):
                    return
                continue
            scope = _arm_fault(fault) if kind else contextlib.nullcontext()

            def _progress(payload: Dict[str, Any],
                          _id=str(msg.get("id", "")),
                          _crash=kind == "crash-after-checkpoint") -> None:
                wire = dict(payload)
                wire["__progress__"] = True
                wire["id"] = _id
                try:
                    conn.send(wire)
                except (BrokenPipeError, EOFError, OSError):
                    pass
                if _crash:      # the retry must resume from this
                    os._exit(23)

            try:
                with scope:
                    result = execute_job(Job.from_dict(msg),
                                         progress=_progress)
            except ProtocolError as err:
                result = JobResult(id=str(msg.get("id", "")),
                                   kind=str(msg.get("kind", "")),
                                   status="rejected", error=str(err),
                                   error_type="ProtocolError",
                                   worker=os.getpid())
            except Exception as err:  # executor is total; belt and braces
                result = JobResult(id=str(msg.get("id", "")),
                                   kind=str(msg.get("kind", "")),
                                   status="error", error=str(err),
                                   error_type=type(err).__name__,
                                   worker=os.getpid())
            try:
                conn.send(result.to_dict())
            except (BrokenPipeError, EOFError, OSError):
                return


def _preload_executor_deps() -> None:
    """Import the executor's lazy dependencies *in the parent* before
    forking, so workers inherit warm modules instead of each paying the
    full import bill on its first job.  (Spawned workers on non-POSIX
    platforms still import on demand.)"""
    import repro.analysis.trace          # noqa: F401
    import repro.equiv.checker           # noqa: F401
    import repro.ft.machine              # noqa: F401
    import repro.ft.typecheck            # noqa: F401
    import repro.compile.pipeline        # noqa: F401
    import repro.papers_examples         # noqa: F401
    import repro.resilience.safety_net   # noqa: F401
    import repro.surface.parser          # noqa: F401
    import repro.surface.pretty          # noqa: F401


def _pick_context(name: Optional[str]):
    """fork where available (instant respawns, no re-import); spawn
    elsewhere.  The worker target and executor are module-level, so every
    start method works."""
    if name:
        return multiprocessing.get_context(name)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


class WorkerPool:
    """See the module docstring.  Thread-safe; use as a context manager."""

    def __init__(self, workers: int = 2, *,
                 max_retries: int = 2,
                 default_timeout: float = DEFAULT_TIMEOUT,
                 queue_size: int = 256,
                 retry_backoff: float = 0.05,
                 chunk_max: int = 16,
                 cache: Optional[ResultCache] = None,
                 mp_context: Optional[str] = None,
                 supervisor: Optional[SupervisorConfig] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.max_retries = max_retries
        self.default_timeout = default_timeout
        self.queue_size = queue_size
        self.retry_backoff = retry_backoff
        self.chunk_max = max(1, chunk_max)
        self.cache = cache
        self._ctx = _pick_context(mp_context)
        self._trace_id = new_trace_id()

        self._cfg = supervisor if supervisor is not None \
            else SupervisorConfig()
        self._breaker = CircuitBreaker(self._cfg.breaker_threshold,
                                       self._cfg.breaker_window,
                                       self._cfg.breaker_cooldown)
        self._quarantine = Quarantine(metric_prefix="serve.quarantine")
        self._restarts = RestartTracker(self._cfg.restart_budget,
                                        self._cfg.restart_window,
                                        self._cfg.restart_backoff,
                                        self._cfg.restart_backoff_max)
        #: Slots waiting out a restart backoff: wid -> (due, death_at).
        self._cooldown: Dict[int, Tuple[float, float]] = {}
        self._mttr_ms: List[float] = []
        self._ewma_ms = 5.0         # smoothed job duration (retry_after)
        self._next_ping = time.monotonic() + self._cfg.heartbeat_interval

        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._all_done = threading.Condition(self._lock)
        self._pending: "collections.deque[Ticket]" = collections.deque()
        self._delayed: List[Ticket] = []
        self._outstanding = 0
        self._closing = False
        self._closed = False

        self._kick_r, self._kick_w = socket.socketpair()
        self._kick_r.setblocking(False)
        self._kick_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._kick_r, selectors.EVENT_READ,
                                ("kick", None))

        # Workers are started before the manager thread so the first
        # forks happen from a single-threaded parent.
        _preload_executor_deps()
        self._workers: Dict[int, _Worker] = {}
        for wid in range(workers):
            self._workers[wid] = self._spawn(wid)
        self._manager = threading.Thread(target=self._loop,
                                         name="funtal-pool-manager",
                                         daemon=True)
        self._manager.start()

    # -- metrics helpers -------------------------------------------------

    @staticmethod
    def _inc(name: str) -> None:
        if OBS.enabled:
            OBS.metrics.inc(name)

    def _gauge_depth_locked(self) -> None:
        if OBS.enabled:
            OBS.metrics.set_gauge("serve.queue.depth",
                                  len(self._pending) + len(self._delayed))

    # -- submission ------------------------------------------------------

    def submit(self, job: Job, *, block: bool = True,
               timeout: Optional[float] = None) -> Ticket:
        """Enqueue ``job``; returns its :class:`Ticket`.  Resolves
        immediately on a cache hit, a quarantined digest (``rejected``)
        or an open circuit breaker (``overloaded``).  Raises
        :class:`PoolClosed` after :meth:`close`; :class:`QueueFull`
        (carrying ``retry_after_ms``) when the bounded queue is at
        capacity, ``block`` is false, and the policy is ``"reject"``."""
        ticket = Ticket(job)
        if self._closing:
            raise PoolClosed("pool is closed")
        if self._admit(job, ticket):
            return ticket
        self._enqueue([ticket], block=block, timeout=timeout)
        return ticket

    def submit_batch(self, jobs: List[Job]) -> List[Ticket]:
        """Bulk :meth:`submit`: cache hits and admission refusals
        resolve up front, the rest enter the queue under one lock
        acquisition and one manager wakeup, so the dispatcher sees the
        whole batch at once and can cut full-size chunks immediately."""
        if self._closing:
            raise PoolClosed("pool is closed")
        tickets = []
        queued = []
        for job in jobs:
            ticket = Ticket(job)
            tickets.append(ticket)
            if not self._admit(job, ticket):
                queued.append(ticket)
        if queued:
            self._enqueue(queued)
        return tickets

    def _admit(self, job: Job, ticket: Ticket) -> bool:
        """Admission control: resolve ``ticket`` immediately (True) or
        clear it for the queue (False), marking degraded dispatch and
        the admission deadline on the way."""
        # The fault key is a digest over the job's canonical JSON: only
        # worth computing when some job is quarantined at all.
        if len(self._quarantine):
            key = job_fault_key(job)
            if key in self._quarantine:
                self._quarantine.skip(key)
                ticket._resolve(JobResult.failure(
                    job, "rejected",
                    f"job digest quarantined: "
                    f"{self._quarantine.reason(key)}",
                    error_type="QuarantinedJob"))
                return True
        if self.cache is not None:
            hit = self.cache.get(job)
            if hit is not None:
                ticket._resolve(hit)
                return True
        if self._breaker.enabled:
            if job.kind == "run" and job.options.jit \
                    and self._breaker.is_open("compile"):
                # Graceful degradation: the compile tier is poisoned,
                # the interpreter tier is not -- serve, don't refuse.
                ticket.degrade = True
                self._inc("serve.degraded.breaker")
            if self._breaker.is_open(job.kind):
                self._inc("serve.breaker.rejected")
                ticket._resolve(JobResult.failure(
                    job, "overloaded",
                    f"circuit breaker open for job kind {job.kind!r}",
                    error_type="BreakerOpen",
                    output={"retry_after_ms": max(
                        50, self._breaker.retry_after_ms(job.kind))}))
                return True
        if job.options.deadline_ms:
            ticket.deadline_at = time.monotonic() \
                + job.options.deadline_ms / 1000.0
        return False

    def _retry_after_ms(self) -> int:
        """Load-derived backoff hint: the smoothed job duration scaled
        by queue depth per worker, clamped to [50ms, 5s].  Reads plain
        lengths and floats, so it is safe with or without the lock."""
        queued = len(self._pending) + len(self._delayed)
        workers = max(1, len(self._workers) + len(self._cooldown))
        est = self._ewma_ms * (queued / workers + 1.0)
        return int(min(5000.0, max(50.0, est)))

    def _overload_result(self, ticket: Ticket) -> JobResult:
        return JobResult.failure(
            ticket.job, "overloaded",
            "shed under queue pressure (shed-oldest policy)",
            error_type="QueueFull", attempts=ticket.attempts,
            output={"retry_after_ms": self._retry_after_ms()})

    def _enqueue(self, tickets: List[Ticket], *, block: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Admit ``tickets`` to the bounded queue, applying the shed
        policy; evicted victims resolve ``overloaded`` after the lock
        is released (``_finish`` needs it)."""
        shed: List[Ticket] = []
        try:
            with self._not_full:
                offset = 0
                while offset < len(tickets):
                    while len(self._pending) + len(self._delayed) \
                            >= self.queue_size:
                        if self._closing:
                            raise PoolClosed("pool is closed")
                        if self._cfg.shed_policy == "shed-oldest" \
                                and self._pending:
                            shed.append(self._pending.popleft())
                            self._inc("serve.shed.oldest")
                            continue
                        if not block:
                            raise QueueFull(
                                f"pending queue at capacity "
                                f"({self.queue_size})",
                                retry_after_ms=self._retry_after_ms())
                        self._not_full.wait(timeout)
                    if self._closing:
                        raise PoolClosed("pool is closed")
                    room = self.queue_size - len(self._pending) \
                        - len(self._delayed)
                    take = tickets[offset:offset + room]
                    self._pending.extend(take)
                    self._outstanding += len(take)
                    if OBS.enabled:
                        OBS.metrics.inc("serve.jobs.submitted", len(take))
                    self._gauge_depth_locked()
                    offset += len(take)
                    self._kick()
        finally:
            for victim in shed:
                self._finish(victim, self._overload_result(victim))

    def run_batch(self, jobs: List[Job],
                  timeout: Optional[float] = None) -> List[JobResult]:
        """Submit everything, wait for everything; results in job order."""
        tickets = self.submit_batch(jobs)
        deadline = None if timeout is None else time.monotonic() + timeout
        results = []
        for t in tickets:
            left = None if deadline is None else \
                max(0.0, deadline - time.monotonic())
            result = t.wait(left)
            if result is None:
                result = JobResult.failure(t.job, "timeout",
                                           "client-side wait timed out",
                                           attempts=t.attempts)
            results.append(result)
        return results

    def _kick(self) -> None:
        try:
            self._kick_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # manager already has a wakeup pending

    # -- worker lifecycle (manager thread only, after init) --------------

    def _spawn(self, wid: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        parent_hb, child_hb = self._ctx.Pipe()
        proc = self._ctx.Process(target=_worker_main,
                                 args=(child_conn, child_hb),
                                 name=f"funtal-worker-{wid}", daemon=True)
        proc.start()
        child_conn.close()
        child_hb.close()
        worker = _Worker(wid, proc, parent_conn, parent_hb)
        self._selector.register(parent_conn, selectors.EVENT_READ,
                                ("conn", worker))
        self._selector.register(parent_hb, selectors.EVENT_READ,
                                ("hb", worker))
        self._selector.register(proc.sentinel, selectors.EVENT_READ,
                                ("sentinel", worker))
        self._inc("serve.worker.spawn")
        return worker

    def _record_mttr(self, death_at: float) -> None:
        ms = (time.monotonic() - death_at) * 1000.0
        self._mttr_ms.append(ms)
        if OBS.enabled:
            OBS.metrics.observe("serve.recovery.mttr.ms", ms)

    def _reap_and_respawn(self, worker: _Worker) -> None:
        death_at = time.monotonic()
        for key in (worker.conn, worker.hb_conn, worker.proc.sentinel):
            try:
                self._selector.unregister(key)
            except (KeyError, ValueError):
                pass
        for conn in (worker.conn, worker.hb_conn):
            try:
                conn.close()
            except OSError:
                pass
        if worker.proc.is_alive():
            worker.proc.kill()
        worker.proc.join(timeout=5.0)
        if self._closing:
            self._workers.pop(worker.wid, None)
            return
        delay = self._restarts.delay(worker.wid)
        if delay <= 0:
            self._workers[worker.wid] = self._spawn(worker.wid)
            self._inc("serve.worker.respawn")
            self._record_mttr(death_at)
        else:
            # Over the slot's restart budget: cool down before the
            # respawn instead of hot-looping fork/exec.
            self._workers.pop(worker.wid, None)
            self._cooldown[worker.wid] = (death_at + delay, death_at)
            self._inc("serve.worker.backoff")

    def _fail_worker(self, worker: _Worker, status: str, *,
                     hung: bool = False) -> None:
        """The worker crashed, went silent, or its head job overran the
        deadline: reap and respawn it, retry-or-fail the head (the job
        being executed), requeue the untouched chunk-mates without
        penalty."""
        inflight = worker.inflight
        worker.inflight = collections.deque()
        if hung:
            self._inc("serve.worker.hung")
        self._inc("serve.worker."
                  + ("timeout" if status == "timeout" else "crash"))
        self._reap_and_respawn(worker)
        if inflight:
            head = inflight.popleft()
            if self._breaker.record_fatal(head.job.kind):
                self._inc("serve.breaker.open")
            self._retry_or_fail(head, status)
        if inflight:
            with self._lock:
                self._pending.extendleft(reversed(inflight))
                self._gauge_depth_locked()

    def _retry_or_fail(self, ticket: Ticket, status: str) -> None:
        if ticket.attempts <= self.max_retries:
            delay = self.retry_backoff * (2 ** (ticket.attempts - 1))
            ticket.not_before = time.monotonic() + delay
            # Recovery accounting: a retry with a checkpoint in hand
            # resumes mid-run on a sibling; one without starts over.
            self._inc("serve.recovery.resumed"
                      if ticket.checkpoint is not None
                      else "serve.recovery.restarted")
            with self._lock:
                self._delayed.append(ticket)
                self._gauge_depth_locked()
            self._inc("serve.jobs.retried")
            return
        if status in ("crashed", "timeout"):
            self._quarantine.add(
                job_fault_key(ticket.job),
                f"{status} after {ticket.attempts} attempts")
        what = "hung (wall-clock timeout)" if status == "timeout" \
            else "crashed its worker"
        self._finish(ticket, JobResult.failure(
            ticket.job, status,
            f"job {what} {ticket.attempts} time(s); retry budget "
            f"({self.max_retries}) exhausted", attempts=ticket.attempts))

    def _wire_job(self, ticket: Ticket) -> Dict[str, Any]:
        """The wire dict for one dispatch.

        A retry holding a progress checkpoint is rewritten into a
        ``resume`` job from that snapshot (``job.fault`` deliberately
        dropped -- the fault already fired); any other dispatch of a
        job with a fault carries it as the dict's ``"fault"`` entry.
        Degraded tickets carry ``options.degraded`` so the executor
        skips the JIT tier.  While instrumentation is on, jobs that do not
        already carry a trace context get one, so the worker ships its
        spans/metrics back for stitching (events only while a trace is
        actually being recorded)."""
        job = ticket.job
        if ticket.checkpoint is not None and job.kind in ("run", "resume"):
            opts = job.options
            resume = Job(
                kind="resume", id=job.id,
                snapshot=ticket.checkpoint["snapshot"],
                options=JobOptions(
                    fuel=max(1, int(ticket.checkpoint["remaining"])),
                    checkpoint=opts.checkpoint,
                    checkpoint_every=opts.checkpoint_every,
                    engine=opts.engine, trace=opts.trace))
            ticket.recovering = True
            wire = resume.to_dict()
        else:
            wire = job.to_dict()
            if ticket.degrade:
                options = dict(wire.get("options") or {})
                options["degraded"] = True
                wire["options"] = options
            if job.fault is not None:
                wire["fault"] = job.fault
        if OBS.enabled and "trace_ctx" not in wire:
            wire["trace_ctx"] = {
                "trace_id": self._trace_id,
                "parent_span_id": ticket.span_id,
                "record": bool(ticket.span_id),
            }
        return wire

    def _finish(self, ticket: Ticket, result: JobResult) -> None:
        result.attempts = max(result.attempts, ticket.attempts)
        if ticket.recovering:
            # The wire job was a resume rewrite; the caller submitted
            # (and the cache/clients key on) the original kind.
            result.kind = ticket.job.kind
            result.output["recovered"] = True
            result.output["recovered_from_worker"] = \
                ticket.checkpoint.get("worker")
            if result.ok:
                self._inc("serve.recovery.recovered")
        if self.cache is not None and not ticket.recovering \
                and not result.output.get("degraded"):
            self.cache.put(ticket.job, result)
        end_ns = time.perf_counter_ns()
        dur = result.duration_ms or (end_ns - ticket.start_ns) / 1e6
        self._ewma_ms = 0.8 * self._ewma_ms + 0.2 * dur
        if OBS.enabled:
            OBS.metrics.inc("serve.jobs.completed" if result.ok
                            else "serve.jobs.failed")
            OBS.metrics.observe("serve.job.ms",
                                (end_ns - ticket.start_ns) / 1e6)
            envelope = result.obs
            if envelope and envelope.get("metrics"):
                OBS.metrics.merge_snapshot(envelope["metrics"])
                OBS.metrics.inc("serve.obs.envelopes")
            if OBS.bus.active:
                span_id = ticket.span_id or next(obs_events._span_ids)
                if envelope and envelope.get("events"):
                    stitched = stitch_envelope(envelope, span_id)
                    for event in stitched:
                        OBS.bus.publish(event)
                    OBS.metrics.inc(
                        "serve.obs.spans_stitched",
                        sum(1 for e in stitched
                            if isinstance(e, obs_events.Span)))
                OBS.bus.publish(obs_events.Span(
                    "serve.job", "serve", ticket.start_ns, end_ns,
                    span_id, None,
                    (("kind", ticket.job.kind),
                     ("status", result.status),
                     ("attempts", str(ticket.attempts)),
                     ("worker", str(result.worker or "")))))
        ticket._resolve(result)
        with self._all_done:
            self._outstanding -= 1
            if self._outstanding == 0:
                self._all_done.notify_all()

    # -- the manager loop ------------------------------------------------

    def _arm_deadline(self, worker: _Worker) -> None:
        """(Re)start the head job's wall clock."""
        if worker.inflight:
            head = worker.inflight[0]
            head.attempts += 1
            worker.deadline = time.monotonic() \
                + head._timeout_for(self.default_timeout)

    def _assign(self) -> None:
        now = time.monotonic()
        expired: List[Ticket] = []
        with self._lock:
            if self._delayed:
                due = [t for t in self._delayed if t.not_before <= now]
                for t in due:
                    self._delayed.remove(t)
                    self._pending.appendleft(t)   # retries jump the queue
            # Admission deadlines: a job still queued past its deadline
            # is shed here, before it can waste a worker.
            if self._pending \
                    and any(t.deadline_at is not None
                            for t in self._pending):
                keep: "collections.deque[Ticket]" = collections.deque()
                for t in self._pending:
                    if t.deadline_at is not None and now > t.deadline_at:
                        expired.append(t)
                    else:
                        keep.append(t)
                if expired:
                    self._pending = keep
                    self._gauge_depth_locked()
                    self._not_full.notify(len(expired))
        for t in expired:
            self._inc("serve.shed.expired")
            self._finish(t, JobResult.failure(
                t.job, "timeout",
                f"deadline ({t.job.options.deadline_ms} ms) expired "
                f"before dispatch", error_type="DeadlineExpired",
                attempts=t.attempts, output={"shed": True}))
        idle = [w for w in self._workers.values() if not w.inflight]
        for i, worker in enumerate(idle):
            with self._not_full:
                if not self._pending:
                    break
                # Spread the queue over the remaining idle workers; a
                # shallow queue yields single-job chunks (low latency), a
                # deep one yields up to chunk_max (amortized round-trips).
                share = -(-len(self._pending) // (len(idle) - i))
                take = min(share, self.chunk_max, len(self._pending))
                chunk = [self._pending.popleft() for _ in range(take)]
                self._gauge_depth_locked()
                self._not_full.notify(take)
            worker.inflight.extend(chunk)
            self._arm_deadline(worker)
            try:
                worker.conn.send([self._wire_job(t) for t in chunk])
            except (BrokenPipeError, OSError):
                self._fail_worker(worker, "crashed")

    def _handle_progress(self, worker: _Worker,
                         data: Dict[str, Any]) -> None:
        """A mid-run checkpoint from the head job: remember it (a retry
        after worker death resumes from here) and re-arm the deadline --
        progress is proof of liveness."""
        if not worker.inflight:
            return
        head = worker.inflight[0]
        if data.get("id") and head.job.id and data["id"] != head.job.id:
            return
        head.checkpoint = {
            "snapshot": data.get("snapshot"),
            "spent": int(data.get("spent", 0)),
            "remaining": int(data.get("remaining", 0)),
            "worker": worker.proc.pid,
        }
        worker.deadline = time.monotonic() \
            + head._timeout_for(self.default_timeout)
        self._inc("serve.recovery.checkpoints")

    def _drain_results(self, worker: _Worker,
                       reported: bool = False) -> None:
        """Consume every result the worker has streamed so far.

        ``reported`` says the manager's selector has just reported the
        result pipe readable, so the first message is read without
        asking again; every other read waits for a non-blocking
        readiness check.  The death-rattle drain passes ``False``: a
        sibling may hold that pipe open, so a blocking read there could
        wait forever."""
        while worker.inflight:
            try:
                if not reported and not worker.readable.poll(0):
                    return
                reported = False
                data = worker.conn.recv()
                if isinstance(data, dict) and data.get("__progress__"):
                    self._handle_progress(worker, data)
                    continue
                result = JobResult.from_dict(data)
            except Exception:
                self._fail_worker(worker, "crashed")
                return
            ticket = worker.inflight.popleft()
            if self._breaker.enabled:
                self._breaker.record_ok(ticket.job.kind)
            self._finish(ticket, result)
            self._arm_deadline(worker)

    def _drain_pongs(self, worker: _Worker) -> None:
        try:
            while worker.hb_conn.poll():
                worker.hb_conn.recv()
                worker.last_pong = time.monotonic()
                worker.ping_sent = False
        except (EOFError, OSError):
            pass    # the sentinel reports the death

    def _heartbeat(self, now: float) -> None:
        """Ping every worker; replace the ones that went silent.  This
        is deliberately independent of job deadlines: a worker wedged
        between jobs (or SIGSTOP'd mid-chunk) has no deadline armed
        against it, yet must not hold its slot forever."""
        self._next_ping = now + self._cfg.heartbeat_interval
        limit = self._cfg.heartbeat_interval * self._cfg.heartbeat_misses
        for worker in list(self._workers.values()):
            if worker.ping_sent and now - worker.last_pong > limit:
                self._fail_worker(worker, "timeout", hung=True)
                continue
            try:
                worker.hb_conn.send(0)
                worker.ping_sent = True
            except (BrokenPipeError, OSError):
                pass    # the sentinel reports the death

    def _respawn_cooled(self, now: float) -> None:
        for wid, (due, death_at) in list(self._cooldown.items()):
            if self._closing:
                del self._cooldown[wid]
            elif now >= due:
                del self._cooldown[wid]
                self._workers[wid] = self._spawn(wid)
                self._inc("serve.worker.respawn")
                self._record_mttr(death_at)

    def _wait_timeout(self) -> float:
        now = time.monotonic()
        timeout = 0.2
        for w in self._workers.values():
            if w.inflight:
                timeout = min(timeout, max(0.0, w.deadline - now))
        if self._cfg.heartbeat_interval > 0:
            timeout = min(timeout, max(0.0, self._next_ping - now))
        for due, _ in self._cooldown.values():
            timeout = min(timeout, max(0.0, due - now))
        with self._lock:
            for t in self._delayed:
                timeout = min(timeout, max(0.0, t.not_before - now))
        return timeout

    def _loop(self) -> None:
        while True:
            with self._lock:
                idle_exit = (self._closed and not self._pending
                             and not self._delayed
                             and all(not w.inflight
                                     for w in self._workers.values()))
            if idle_exit:
                break
            if self._cooldown:
                self._respawn_cooled(time.monotonic())
            self._assign()

            ready = self._selector.select(self._wait_timeout())

            # Results first, so a job that finished just before its
            # deadline (or its worker's death rattle) still counts.
            dead: List[_Worker] = []
            for key, _ in ready:
                tag, worker = key.data
                if tag == "kick":
                    try:
                        while self._kick_r.recv(8192):
                            pass
                    except (BlockingIOError, OSError):
                        pass
                elif tag == "conn":
                    self._drain_results(worker, reported=True)
                elif tag == "hb":
                    self._drain_pongs(worker)
                elif tag == "sentinel":
                    dead.append(worker)

            for worker in dead:
                if worker is not self._workers.get(worker.wid):
                    continue  # already reaped via its pipe this round
                if worker.proc.is_alive():
                    continue
                self._drain_results(worker)    # salvage the death rattle
                if worker is self._workers.get(worker.wid):
                    self._fail_worker(worker, "crashed")

            now = time.monotonic()
            for worker in list(self._workers.values()):
                if worker.inflight and now > worker.deadline:
                    self._fail_worker(worker, "timeout")
            if self._cfg.heartbeat_interval > 0 and now >= self._next_ping:
                self._heartbeat(now)

        # Shutdown: politely stop workers, then make sure.
        for worker in list(self._workers.values()):
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in list(self._workers.values()):
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=5.0)
            for conn in (worker.conn, worker.hb_conn):
                try:
                    conn.close()
                except OSError:
                    pass
        self._selector.close()

    # -- lifecycle -------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted job has resolved."""
        with self._all_done:
            if self._outstanding == 0:
                return True
            return self._all_done.wait_for(
                lambda: self._outstanding == 0, timeout)

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> None:
        """Stop accepting work; by default wait for in-flight jobs, then
        shut the workers down.  ``drain=False`` abandons the queue
        (pending tickets resolve ``rejected``)."""
        with self._lock:
            already = self._closing
            self._closing = True
            self._not_full.notify_all()
        if already:
            self._manager.join(timeout=timeout)
            return
        if drain:
            self.drain(timeout)
        else:
            with self._lock:
                abandoned = list(self._pending) + list(self._delayed)
                self._pending.clear()
                self._delayed.clear()
            for ticket in abandoned:
                self._finish(ticket, JobResult.failure(
                    ticket.job, "rejected", "pool closed",
                    attempts=ticket.attempts))
        with self._lock:
            self._closed = True
        self._kick()
        self._manager.join(timeout=timeout or 30.0)
        self._kick_r.close()
        self._kick_w.close()

    def stats(self) -> Dict[str, object]:
        """Operational snapshot (workers, queue, cache, supervision)."""
        with self._lock:
            queued = len(self._pending) + len(self._delayed)
            outstanding = self._outstanding
        mttr = list(self._mttr_ms)
        return {
            "workers": len(self._workers),
            "queued": queued,
            "outstanding": outstanding,
            "queue_size": self.queue_size,
            "chunk_max": self.chunk_max,
            "max_retries": self.max_retries,
            "default_timeout": self.default_timeout,
            "cache": self.cache.stats() if self.cache is not None else None,
            "supervisor": {
                "heartbeat_interval": self._cfg.heartbeat_interval,
                "shed_policy": self._cfg.shed_policy,
                "breaker": self._breaker.snapshot(),
                "quarantine": self._quarantine.stats(),
                "restarts": self._restarts.snapshot(),
                "cooling": len(self._cooldown),
                "mttr_ms": {
                    "count": len(mttr),
                    "mean": (sum(mttr) / len(mttr)) if mttr else 0.0,
                    "max": max(mttr) if mttr else 0.0,
                },
            },
        }

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
