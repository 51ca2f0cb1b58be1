"""Typed jobs/results and the JSON-lines wire format of ``repro.serve``.

One request or response per line, each a single JSON object.  A request is
either a *job* (the default when no ``op`` key is present) or a control
operation (``{"op": "ping"}``, ``{"op": "stats"}``).  A job names one of
the kinds mirroring the CLI -- ``parse``, ``typecheck``, ``run``,
``jit``, ``equiv`` -- and supplies the program either inline (``source``,
surface syntax) or by built-in paper-example name (``example``); the
sixth kind, ``resume``, instead supplies the ``snapshot`` of a
fuel-suspended machine from an earlier checkpointing ``run``.

The dataclasses are the single source of truth: the wire dicts, the
content-address used by :mod:`repro.serve.cache`, and the worker-side
executor all consume :class:`Job`; the server, client, and CLI all consume
:class:`JobResult`.  ``from_dict`` is strict -- unknown keys and unknown
option names raise :class:`ProtocolError` -- so that a typo'd option fails
loudly instead of silently missing the cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.errors import FunTALError

if TYPE_CHECKING:
    from repro.resilience.chaos import Fault

__all__ = [
    "JOB_KINDS", "RESULT_STATUSES", "ProtocolError",
    "SEMANTIC_OPTIONS", "NON_SEMANTIC_OPTIONS",
    "JobOptions", "Job", "JobResult",
    "encode_line", "decode_line",
]

#: The request kinds: six mirroring the CLI subcommands, plus
#: ``resume``, which continues a fuel-suspended machine from the
#: content-addressed snapshot a checkpointing ``run`` handed back.
#: ``compile`` is the whole-F compiler (:mod:`repro.compile`); ``jit``
#: compiles one lambda in the JIT's scope (first-order
#: arithmetic) through the same compiler.  ``link``
#: builds and links a multi-component manifest (:mod:`repro.link`);
#: its ``source`` is the manifest JSON, and warm workers reuse the
#: on-disk artifact store (``options.store``) across jobs.
JOB_KINDS = ("parse", "typecheck", "run", "jit", "compile", "equiv",
             "resume", "link")

#: Every status a result can carry.  ``ok`` is the only cacheable one;
#: ``rejected`` is produced for malformed requests, for quarantined job
#: digests, and when the pool is closing (resubmission cannot help).
#: ``overloaded`` is the *transient* refusal: admission control shed the
#: job (bounded queue at capacity, or an open per-kind circuit breaker)
#: and the output carries ``retry_after_ms`` -- back off and resubmit.
#: ``suspended`` means the run hit its fuel ceiling with
#: ``options.checkpoint`` set and the output carries a resumable
#: snapshot; ``resource_exhausted`` covers the non-fuel governors (heap
#: cells, stack depth), which are terminal.
RESULT_STATUSES = ("ok", "error", "fuel_exhausted", "resource_exhausted",
                   "suspended", "timeout", "crashed", "rejected",
                   "overloaded")


class ProtocolError(FunTALError):
    """A wire message was malformed (bad JSON, unknown kind/option, ...)."""


@dataclass
class JobOptions:
    """Per-job knobs.  Only non-default values go on the wire, so the
    canonical JSON used for cache keys stays minimal and stable.

    ``timeout`` is *wall-clock seconds* enforced by the worker pool;
    ``fuel`` is the machines' step budget.  ``timeout`` (operational,
    not semantic) and ``no_cache`` itself are excluded from the cache
    key.  No option injects a fault: faults travel only in process, on
    :attr:`Job.fault`.
    """

    fuel: Optional[int] = None          # machine step budget
    heap: Optional[int] = None          # heap-cell ceiling (Budget)
    depth: Optional[int] = None         # stack-depth ceiling (Budget)
    checkpoint: bool = False            # run/resume: suspend + snapshot on
                                        # fuel exhaustion instead of failing
    jit: bool = False                   # run: execute under the guarded JIT
    timeout: Optional[float] = None     # wall-clock seconds (pool enforced)
    result_type: str = "int"            # halt type for bare T components
    trace: bool = False                 # run: include the control-flow table
    check: bool = False                 # jit: discharge the equiv obligation
    validate: bool = False              # compile: translation validation
    ir: bool = False                    # compile: include the closure IR
    seed: int = 0                       # equiv: context-generator seed
    type: Optional[str] = None          # equiv: the common F type
    right: Optional[str] = None         # equiv: right-hand source
    no_cache: bool = False              # bypass the result cache
    engine: Optional[str] = None        # run/resume: F stepper (subst|cek)
    tal_engine: Optional[str] = None    # run/resume: T engine (ref|fast)
    store: Optional[str] = None         # link: artifact-store directory
    run: bool = True                    # link: evaluate the linked program
    deadline_ms: Optional[int] = None   # admission control: shed the job
                                        # if not *started* within this
                                        # many ms of submission
    checkpoint_every: Optional[int] = None  # run/resume: ship a progress
                                        # snapshot every N fuel, so a
                                        # killed worker's job resumes
                                        # from its last checkpoint
    degraded: bool = False              # dispatch-side: forced interpreter
                                        # tier (open compile/jit breaker)

    def to_dict(self) -> Dict[str, Any]:
        """Wire dict containing only the non-default entries."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    def semantic_dict(self) -> Dict[str, Any]:
        """The entries that feed the cache key."""
        return {k: v for k, v in self.to_dict().items()
                if k not in NON_SEMANTIC_OPTIONS}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobOptions":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ProtocolError(
                f"unknown job option(s): {', '.join(sorted(unknown))}")
        return cls(**data)


#: Options that change *what* a job computes: they feed the result-cache
#: content address (:meth:`JobOptions.semantic_dict`).
SEMANTIC_OPTIONS = (
    "fuel", "heap", "depth", "checkpoint", "jit", "result_type", "trace",
    "check", "validate", "ir", "seed", "type", "right", "run",
)

#: Options that do not affect the *semantic* result and are therefore
#: excluded from the content address.  This is the one audited list --
#: ``test_protocol_options_lint`` fails when a :class:`JobOptions` field is not
#: classified in exactly one of the two tuples.  The load-bearing
#: entries:
#:
#: * ``engine`` -- the two F steppers are observably step-equivalent
#:   (the differential suite enforces identical values, step counts,
#:   and budget verdicts), so results are shareable across engines.
#: * ``tal_engine`` -- the fast T tier locksteps with the reference
#:   machine (identical values, fuel verdicts, and trap behaviour), so
#:   ref/fast runs share entries.
#: * ``store`` -- the artifact store is a cache; content addressing
#:   makes its hits semantically invisible.
#: * ``checkpoint_every`` -- preserves exact slicing (same value, same
#:   total steps); ``deadline_ms`` is pure admission control.
#: * ``degraded`` -- degraded results never enter the cache (the pool
#:   skips the put), so the flag staying out of the key cannot poison
#:   it.
NON_SEMANTIC_OPTIONS = (
    "timeout", "no_cache", "engine", "tal_engine", "store",
    "deadline_ms", "checkpoint_every", "degraded",
)


@dataclass
class Job:
    """One unit of work: a kind plus a program (inline or by example).

    ``resume`` jobs carry neither -- they carry ``snapshot``, the wire
    form of a :class:`repro.resilience.checkpoint.MachineSnapshot`
    handed back by a previous checkpointing run, and continue it with
    ``options.fuel`` as the new slice.  The snapshot is self-verifying
    (content digest), so a resume may land on any worker.
    """

    kind: str
    id: str = ""
    source: Optional[str] = None        # surface-syntax program text
    example: Optional[str] = None       # built-in paper example name
    snapshot: Optional[Dict[str, Any]] = None   # resume: wire snapshot
    options: JobOptions = field(default_factory=JobOptions)
    #: Cross-process trace propagation record
    #: (:class:`repro.obs.distributed.TraceContext` wire dict).  Purely
    #: observational: never part of the cache key, and absent from the
    #: wire unless set.
    trace_ctx: Optional[Dict[str, Any]] = None
    #: In-process fault directive for the pool's drills and tests.  The
    #: wire format cannot express it: :meth:`to_dict` never writes it
    #: and :meth:`from_dict` rejects a ``"fault"`` key.
    fault: Optional[Fault] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ProtocolError(
                f"unknown job kind {self.kind!r} "
                f"(expected one of {', '.join(JOB_KINDS)})")
        if self.kind == "resume":
            if self.snapshot is None:
                raise ProtocolError("resume jobs need 'snapshot'")
            if self.source is not None or self.example is not None:
                raise ProtocolError(
                    "resume jobs take 'snapshot', not 'source'/'example'")
        else:
            if self.snapshot is not None:
                raise ProtocolError(
                    f"{self.kind} jobs do not take 'snapshot'")
            if (self.source is None) == (self.example is None):
                raise ProtocolError(
                    "a job needs exactly one of 'source' or 'example'")
        if self.kind == "equiv":
            if self.options.right is None or self.options.type is None:
                raise ProtocolError(
                    "equiv jobs need options.right and options.type")
        if self.kind == "link" and self.source is None:
            raise ProtocolError(
                "link jobs take 'source' (the manifest JSON), not "
                "'example'")
        if self.options.checkpoint and self.options.jit:
            raise ProtocolError(
                "options.checkpoint and options.jit are mutually "
                "exclusive (the guarded JIT re-runs on faults, so its "
                "machine state is not checkpointable)")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        if self.id:
            out["id"] = self.id
        if self.source is not None:
            out["source"] = self.source
        if self.example is not None:
            out["example"] = self.example
        if self.snapshot is not None:
            out["snapshot"] = self.snapshot
        opts = self.options.to_dict()
        if opts:
            out["options"] = opts
        if self.trace_ctx is not None:
            out["trace_ctx"] = self.trace_ctx
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        extra = set(data) - {"kind", "id", "source", "example", "snapshot",
                             "options", "op", "v", "trace_ctx"}
        if extra:
            raise ProtocolError(
                f"unknown job field(s): {', '.join(sorted(extra))}")
        if "kind" not in data:
            raise ProtocolError("job is missing 'kind'")
        return cls(
            kind=data["kind"],
            id=str(data.get("id", "")),
            source=data.get("source"),
            example=data.get("example"),
            snapshot=data.get("snapshot"),
            options=JobOptions.from_dict(data.get("options", {}) or {}),
            trace_ctx=data.get("trace_ctx"),
        )


@dataclass
class JobResult:
    """The outcome of one job, as it travels back over the wire."""

    id: str
    kind: str
    status: str                         # one of RESULT_STATUSES
    output: Dict[str, Any] = field(default_factory=dict)
    error: str = ""
    error_type: str = ""
    attempts: int = 1                   # dispatch attempts consumed
    cached: bool = False                # served from the result cache
    duration_ms: float = 0.0            # executor wall time (the cached
                                        # value keeps the original run's)
    worker: Optional[int] = None        # pid of the executing worker
    #: Worker-side observability envelope (``{"pid", "metrics",
    #: "events"}``) captured when the job carried a ``trace_ctx``; see
    #: :mod:`repro.obs.distributed`.  Stripped before caching.
    obs: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        # Built field by field: ``dataclasses.asdict`` deep-copies the
        # whole output tree, which costs several times ``from_dict``.
        # The top level and ``output`` are fresh dicts; deeper values
        # are shared.
        out = {"id": self.id, "kind": self.kind, "status": self.status,
               "output": dict(self.output)}
        if self.error:
            out["error"] = self.error
            out["error_type"] = self.error_type
        out["attempts"] = self.attempts
        out["cached"] = self.cached
        out["duration_ms"] = self.duration_ms
        if self.worker is not None:
            out["worker"] = self.worker
        if self.obs is not None:
            out["obs"] = self.obs
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        if data.get("status") not in RESULT_STATUSES:
            raise ProtocolError(
                f"unknown result status {data.get('status')!r}")
        return cls(
            id=str(data.get("id", "")),
            kind=data.get("kind", ""),
            status=data["status"],
            output=data.get("output", {}) or {},
            error=data.get("error", ""),
            error_type=data.get("error_type", ""),
            attempts=int(data.get("attempts", 1)),
            cached=bool(data.get("cached", False)),
            duration_ms=float(data.get("duration_ms", 0.0)),
            worker=data.get("worker"),
            obs=data.get("obs"),
        )

    @classmethod
    def failure(cls, job: "Job", status: str, error: str,
                error_type: str = "", attempts: int = 1,
                output: Optional[Dict[str, Any]] = None) -> "JobResult":
        return cls(id=job.id, kind=job.kind, status=status, error=error,
                   error_type=error_type or status, attempts=attempts,
                   output=output or {})


def encode_line(message: Dict[str, Any]) -> bytes:
    """One wire line: compact JSON + newline."""
    return json.dumps(message, separators=(",", ":"),
                      sort_keys=True).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a dict; :class:`ProtocolError` on junk."""
    try:
        data = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as err:
        raise ProtocolError(f"bad wire line: {err}") from None
    if not isinstance(data, dict):
        raise ProtocolError("wire line is not a JSON object")
    return data


def jobs_from_jsonl(text: str) -> List[Job]:
    """Parse a ``.jsonl`` batch file (blank lines and ``#`` comments ok)."""
    jobs = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            job = Job.from_dict(decode_line(line.encode("utf-8")))
        except ProtocolError as err:
            raise ProtocolError(f"line {i}: {err}") from None
        if not job.id:
            job.id = f"job-{i}"
        jobs.append(job)
    return jobs
