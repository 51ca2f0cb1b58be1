"""Deterministic chaos harness: seeded fault injection at named seams.

Resilience claims are only as good as the faults they were tested
against.  This module plants cheap, always-compiled-in probes at the
runtime's failure seams; in normal operation a probe is one attribute
read and a ``None`` check.  Under a :class:`FaultPlane` each probe rolls
a *seeded* PRNG and, with the configured probability, raises
:class:`~repro.errors.InjectedFault` -- a structured FunTALError, so the
fault travels the same degradation path a real failure would (fallback,
quarantine, structured job result) and never an unhandled crash.

Determinism: the plane is driven by ``random.Random(seed)`` and the
probe order of a single-threaded run is fixed, so the same (program,
seed, probability) triple always faults at the same seams in the same
order.  ``funtal chaos`` and the CI smoke step rely on this to make
failure reproduction a one-liner.

Seams (see :data:`SEAMS`):

``heap.alloc``
    Memory.alloc/bind -- a heap cell could not be committed.
``boundary.translate``
    f_to_t/t_to_f -- a value crossing the F/T boundary is lost.
``jit.compile``
    jit/compiler.py -- the compiler backend faults; the safety net must
    fall back to the interpreter with an identical result.
``jit.run``
    execution of already-jitted code faults at call time.
``snapshot.pickle``
    checkpoint capture -- the pickler dies mid-snapshot.
``snapshot.restore``
    checkpoint restore -- the snapshot cannot be revived on this side.
``store.io``
    ArtifactStore.get/put -- the on-disk artifact store is faulting
    (serve jobs degrade to store-less compilation rather than failing).

Use as a context manager to scope injection::

    with FaultPlane(seed=7, rate=0.05):
        ... run workload ...

or target specific seams: ``FaultPlane(seed=7, seams=["jit.compile"])``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Union

from repro.errors import InjectedFault
from repro.obs.events import OBS

__all__ = ["SEAMS", "PROCESS_FAULTS", "Fault", "FaultPlane", "probe",
           "active_plane"]

#: Every seam a probe is planted at, with a one-line description.
SEAMS: Dict[str, str] = {
    "heap.alloc": "heap cell allocation (Memory.alloc / Memory.bind)",
    "boundary.translate": "F<->T boundary value translation",
    "jit.compile": "JIT compilation of an F lambda",
    "jit.run": "execution of previously-jitted code",
    "snapshot.pickle": "machine checkpoint capture (pickling)",
    "snapshot.restore": "machine checkpoint restore (unpickling)",
    "store.io": "artifact-store reads/writes (ArtifactStore.get / put)",
}

#: Fault kinds that act on a pool worker process rather than at a seam.
PROCESS_FAULTS = ("crash", "crash-after-checkpoint", "hang", "corrupt",
                  "stall")


@dataclass(frozen=True)
class Fault:
    """An in-process fault for one serve pool job (``Job.fault``); the
    wire protocol cannot carry one.  ``kind`` is a :data:`PROCESS_FAULTS`
    name, applied by the pool's worker loop, or a :data:`SEAMS` name,
    which arms a :class:`FaultPlane` (``rate``, ``seed``) on that one
    seam for the job.  ``seconds`` is the length of a ``stall``."""

    kind: str
    seconds: float = 0.0
    rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PROCESS_FAULTS and self.kind not in SEAMS:
            raise ValueError(f"unknown fault kind {self.kind!r}")


#: The plane currently armed, or None.  Single-threaded by design: the
#: machines themselves are single-threaded, and serve workers are
#: separate processes, so a module global is both sufficient and exactly
#: as deterministic as the run itself.
_ACTIVE: Optional["FaultPlane"] = None


def active_plane() -> Optional["FaultPlane"]:
    return _ACTIVE


def probe(seam: str, detail: Union[str, Callable[[], str]] = "") -> None:
    """The hook the runtime calls at each seam.  No-op unless a
    :class:`FaultPlane` is armed and elects to fault here.  ``detail``
    may be a zero-argument callable, formatted only for a fault."""
    plane = _ACTIVE
    if plane is not None:
        plane.roll(seam, detail)


class FaultPlane:
    """A seeded source of injected faults, scoped with ``with``.

    ``rate`` is the per-probe fault probability; ``seams`` restricts
    injection to a subset of :data:`SEAMS` (default: all of them).
    ``max_faults`` caps the number of faults one plane will raise, so a
    workload can be made to limp rather than die outright.
    """

    def __init__(self, seed: int = 0, rate: float = 0.1,
                 seams: Optional[Iterable[str]] = None,
                 max_faults: Optional[int] = None):
        unknown = set(seams or ()) - set(SEAMS)
        if unknown:
            raise ValueError(f"unknown chaos seams: {sorted(unknown)}")
        self.seed = seed
        self.rate = rate
        self.seams = frozenset(seams) if seams is not None else frozenset(SEAMS)
        self.max_faults = max_faults
        self.rng = random.Random(seed)
        self.probes = 0
        self.faults = 0
        self.fault_log: list = []  # (probe_index, seam) pairs, for reports

    def roll(self, seam: str,
             detail: Union[str, Callable[[], str]] = "") -> None:
        if seam not in self.seams:
            return
        # Every eligible probe advances the PRNG exactly once, faulting
        # or not, so the fault schedule is a pure function of the seed.
        self.probes += 1
        hit = self.rng.random() < self.rate
        if not hit:
            return
        if self.max_faults is not None and self.faults >= self.max_faults:
            return
        self.faults += 1
        self.fault_log.append((self.probes, seam))
        if OBS.enabled:
            OBS.metrics.inc("resilience.chaos.injected")
            OBS.metrics.inc(f"resilience.chaos.injected.{seam}")
        raise InjectedFault(seam, detail() if callable(detail) else detail)

    # -- scoping ---------------------------------------------------------

    def __enter__(self) -> "FaultPlane":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a FaultPlane is already active")
        _ACTIVE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        _ACTIVE = None

    def summary(self) -> Dict[str, object]:
        per_seam: Dict[str, int] = {}
        for _, seam in self.fault_log:
            per_seam[seam] = per_seam.get(seam, 0) + 1
        return {
            "seed": self.seed, "rate": self.rate,
            "probes": self.probes, "faults": self.faults,
            "per_seam": per_seam,
        }

    def __repr__(self) -> str:
        return (f"FaultPlane(seed={self.seed}, rate={self.rate}, "
                f"faults={self.faults}/{self.probes} probes)")
