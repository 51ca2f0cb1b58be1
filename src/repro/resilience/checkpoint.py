"""Content-addressed machine checkpoints.

A :class:`MachineSnapshot` is the picklable, hash-addressed form of a
suspended machine: the machine's own resumable state (built by each
machine's ``snapshot()`` method), plus the global fresh-name marks
needed to keep generated locations/variables collision-free when the
state is revived in a *different* process, all pickled into one payload
and named by its SHA-256 digest.

The digest makes snapshots content-addressed: two runs suspended in the
same state produce the same digest, the serve layer can dedupe them, and
restore verifies the payload against the digest so a truncated or
corrupted checkpoint surfaces as a structured
:class:`~repro.errors.SnapshotError` instead of a pickle crash or --
worse -- a silently wrong resumed run.

Fresh-name marks: ``fresh_loc`` (T heap locations) and ``fresh_var`` /
``fresh_tvar`` (F substitution) draw from module-global counters.  A
snapshot records each counter's position; restore advances the local
counters to at least those positions, so names minted after resume can
never collide with names already inside the revived state.
"""

from __future__ import annotations

import base64
import hashlib
import pickle
import sys
from dataclasses import dataclass
from typing import Any, Dict

from repro.errors import SnapshotError
from repro.obs.events import OBS
from repro.resilience.chaos import probe

__all__ = ["MachineSnapshot", "SNAPSHOT_VERSION"]

#: Bumped whenever the pickled layout changes incompatibly; restore
#: refuses snapshots from a different version rather than guessing.
#: Version 2: an FT machine carries its control stack, not suspension
#: records plus a hole value.
SNAPSHOT_VERSION = 2

#: The pickler recurses once per AST node, so a machine suspended inside
#: a deep evaluation context needs more than Python's default ~1000
#: frames to serialize.  Capture temporarily raises the limit to this
#: ceiling; states deeper still fail as a clean :class:`SnapshotError`
#: (the machine stays live) rather than a hard interpreter crash.
#: Unpickling is stack-based in CPython and needs no such headroom.
PICKLE_RECURSION_LIMIT = 50_000


def _fresh_marks() -> Dict[str, int]:
    from repro.f import syntax as f_syntax
    from repro.tal import syntax as tal_syntax
    return {
        "loc": tal_syntax.fresh_mark(),
        "var": f_syntax.fresh_var_mark(),
        "tvar": f_syntax.fresh_tvar_mark(),
    }


def _advance_marks(marks: Dict[str, int]) -> None:
    from repro.f import syntax as f_syntax
    from repro.tal import syntax as tal_syntax
    tal_syntax.advance_fresh(marks.get("loc", 0))
    f_syntax.advance_fresh_var(marks.get("var", 0))
    f_syntax.advance_fresh_tvar(marks.get("tvar", 0))


@dataclass(frozen=True)
class MachineSnapshot:
    """A suspended machine, pickled and named by its content hash.

    ``kind`` records which machine family produced it (``"f"``, ``"t"``
    or ``"ft"``) so a resume entry point can refuse a snapshot meant for
    a different machine.
    """

    kind: str
    payload: bytes
    digest: str

    # -- capture ---------------------------------------------------------

    @classmethod
    def capture(cls, kind: str, state: Any) -> "MachineSnapshot":
        """Pickle ``state`` (plus fresh-name marks) into a snapshot.

        Raises :class:`SnapshotError` if any part of the state resists
        pickling -- the machine is then still live and can keep running;
        a failed checkpoint never corrupts the run it tried to save.
        """
        probe("snapshot.pickle", kind)
        record = {
            "version": SNAPSHOT_VERSION,
            "kind": kind,
            "state": state,
            "marks": _fresh_marks(),
        }
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(max(limit, PICKLE_RECURSION_LIMIT))
            payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # pickle raises a zoo of types
            raise SnapshotError(
                f"cannot pickle {kind!r} machine state: {exc}") from exc
        finally:
            sys.setrecursionlimit(limit)
        digest = hashlib.sha256(payload).hexdigest()
        if OBS.enabled:
            OBS.metrics.inc("resilience.snapshot.captured")
            OBS.metrics.observe("resilience.snapshot.bytes", len(payload))
        return cls(kind=kind, payload=payload, digest=digest)

    # -- restore ---------------------------------------------------------

    def state(self) -> Any:
        """Verify the digest, unpickle, and advance fresh-name counters.

        Returns the machine-specific resumable state that was passed to
        :meth:`capture`.
        """
        probe("snapshot.restore", self.kind)
        actual = hashlib.sha256(self.payload).hexdigest()
        if actual != self.digest:
            raise SnapshotError(
                f"snapshot digest mismatch: expected {self.digest[:12]}..., "
                f"payload hashes to {actual[:12]}...")
        try:
            record = pickle.loads(self.payload)
        except Exception as exc:
            raise SnapshotError(f"cannot unpickle snapshot: {exc}") from exc
        if not isinstance(record, dict) or record.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version "
                f"{record.get('version') if isinstance(record, dict) else '?'} "
                f"(expected {SNAPSHOT_VERSION})")
        if record.get("kind") != self.kind:
            raise SnapshotError(
                f"snapshot kind mismatch: wrapper says {self.kind!r}, "
                f"payload says {record.get('kind')!r}")
        _advance_marks(record.get("marks", {}))
        if OBS.enabled:
            OBS.metrics.inc("resilience.snapshot.restored")
        return record["state"]

    # -- wire form (JSON-safe, for the serve protocol) -------------------

    def to_wire(self) -> Dict[str, str]:
        return {
            "kind": self.kind,
            "digest": self.digest,
            "data": base64.b64encode(self.payload).decode("ascii"),
        }

    @classmethod
    def from_wire(cls, obj: Dict[str, Any]) -> "MachineSnapshot":
        try:
            kind = obj["kind"]
            digest = obj["digest"]
            payload = base64.b64decode(obj["data"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed wire snapshot: {exc}") from exc
        return cls(kind=kind, payload=payload, digest=digest)

    def __repr__(self) -> str:
        return (f"MachineSnapshot(kind={self.kind!r}, "
                f"digest={self.digest[:12]}..., "
                f"{len(self.payload)} bytes)")
