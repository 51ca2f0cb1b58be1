"""The on-disk content-addressed artifact store (``~/.cache/funtal``).

One artifact per file, named by content digest::

    <root>/<digest>.<kind>.json

Each file is a small JSON envelope -- ``version``, ``kind``, ``digest``,
caller ``meta`` (plain JSON: tier, type strings, source hash...), a
base64 pickle ``payload`` carrying the actual syntax trees, and an
``integrity`` hash over the payload.  The envelope is self-verifying:
``get`` recomputes the integrity hash before unpickling, so a truncated
or bit-flipped file is *detected and deleted*, never deserialized --
the caller sees a miss and recompiles.

Durability discipline:

* **atomic writes** -- the envelope is written to a same-directory temp
  file and ``os.replace``d into place, so a reader (or a concurrent
  writer of the same digest) never observes a half-written artifact;
  last writer wins, and both writers wrote the same bytes anyway
  (content addressing);
* **LRU eviction** -- ``get`` touches the file's mtime; ``put`` evicts
  the stalest entries beyond ``maxsize``;
* **observability** -- ``link.store.hit`` / ``.miss`` / ``.put`` /
  ``.evict`` / ``.corrupt`` counters (:mod:`repro.obs`), mirroring the
  in-memory :class:`repro.caching.LRUCache` accounting so store traffic
  shows up in ``funtal stats``.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.obs.events import OBS
from repro.resilience.chaos import probe
from repro.resilience.checkpoint import deep_dumps

__all__ = ["ArtifactStore", "default_store_root", "STORE_VERSION"]

STORE_VERSION = 1


def default_store_root() -> Path:
    """``$FUNTAL_STORE`` if set, else ``~/.cache/funtal``."""
    env = os.environ.get("FUNTAL_STORE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "funtal"


def _count(outcome: str, n: int = 1) -> None:
    if OBS.enabled:
        OBS.metrics.inc(f"link.store.{outcome}", n)


def _encode_payload(obj: Any) -> Tuple[str, str]:
    raw = deep_dumps(obj, "store artifact")  # trees nest arbitrarily deep
    payload = base64.b64encode(raw).decode("ascii")
    return payload, hashlib.sha256(payload.encode("ascii")).hexdigest()


class ArtifactStore:
    """A content-addressed, integrity-checked, LRU-bounded file store."""

    def __init__(self, root: Optional[os.PathLike] = None,
                 maxsize: int = 512):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.root = Path(root) if root is not None else default_store_root()
        self.maxsize = maxsize
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths --------------------------------------------------------

    def path(self, digest: str, kind: str = "artifact") -> Path:
        return self.root / f"{digest}.{kind}.json"

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    # -- read ---------------------------------------------------------

    def get(self, digest: str,
            kind: str = "artifact") -> Optional[Tuple[Dict, Any]]:
        """``(meta, payload object)`` for ``digest``, or ``None``.

        A malformed, truncated, or integrity-failing file counts as
        ``link.store.corrupt``, is deleted, and reads as a miss -- the
        caller's recovery (recompile + re-put) heals the store.
        """
        probe("store.io", f"get {kind} {digest[:12]}")
        path = self.path(digest, kind)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            _count("miss")
            return None
        try:
            envelope = json.loads(text)
            if envelope["version"] != STORE_VERSION:
                raise ValueError(f"version {envelope['version']}")
            if envelope["digest"] != digest or envelope["kind"] != kind:
                raise ValueError("envelope names a different artifact")
            payload = envelope["payload"]
            actual = hashlib.sha256(
                payload.encode("ascii")).hexdigest()
            if actual != envelope["integrity"]:
                raise ValueError("integrity hash mismatch")
            obj = pickle.loads(base64.b64decode(payload.encode("ascii")))
            meta = envelope.get("meta", {})
        except Exception:   # noqa: BLE001 -- any damage reads as corrupt
            _count("corrupt")
            _count("miss")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        _count("hit")
        try:
            os.utime(path)      # LRU touch
        except OSError:
            pass
        return meta, obj

    # -- write --------------------------------------------------------

    def put(self, digest: str, obj: Any, meta: Optional[Dict] = None,
            kind: str = "artifact") -> Path:
        """Persist ``obj`` under ``digest`` atomically; returns the path.

        Concurrent writers of the same digest race benignly: each writes
        a private temp file and ``os.replace`` is atomic, so readers see
        either the old complete file or the new complete file, never a
        torn one.
        """
        probe("store.io", f"put {kind} {digest[:12]}")
        payload, integrity = _encode_payload(obj)
        envelope = {
            "version": STORE_VERSION,
            "kind": kind,
            "digest": digest,
            "meta": meta or {},
            "payload": payload,
            "integrity": integrity,
        }
        path = self.path(digest, kind)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f".{digest[:12]}.",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        _count("put")
        self._evict()
        return path

    def delete(self, digest: str, kind: str = "artifact") -> bool:
        try:
            self.path(digest, kind).unlink()
            return True
        except OSError:
            return False

    def clear(self) -> None:
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
            except OSError:
                pass

    def _evict(self) -> None:
        """Drop the least-recently-used entries beyond ``maxsize``."""
        entries = []
        for path in self.root.glob("*.json"):
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue
        excess = len(entries) - self.maxsize
        if excess <= 0:
            return
        entries.sort()
        evicted = 0
        for _, path in entries[:excess]:
            try:
                path.unlink()
                evicted += 1
            except OSError:
                continue
        if evicted:
            _count("evict", evicted)

    # -- validation receipts ------------------------------------------

    def get_validation(self, digest: str) -> Optional[Dict]:
        """A stored translation-validation receipt for an artifact."""
        found = self.get(digest, kind="validation")
        return None if found is None else found[1]

    def put_validation(self, digest: str, report: Dict) -> Path:
        return self.put(digest, report, kind="validation")

    def stats(self) -> Dict[str, int]:
        artifacts = sum(1 for _ in self.root.glob("*.artifact.json"))
        receipts = sum(1 for _ in self.root.glob("*.validation.json"))
        return {"entries": artifacts + receipts, "artifacts": artifacts,
                "validations": receipts, "maxsize": self.maxsize}
