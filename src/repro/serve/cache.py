"""Content-addressed result caching.

:class:`ResultCache` is the service-level cache, over a
:class:`repro.caching.LRUCache`: finished
:class:`~repro.serve.protocol.JobResult`\\ s addressed by
:func:`job_cache_key`, the SHA-256 of the job's canonical JSON identity
``(kind, source-or-example, semantic options)``.  Only ``ok`` results
are stored; a hit is returned as a *copy* flagged ``cached=True`` so the
stored record stays pristine.

Wall-clock options (``timeout``) and the in-process ``Job.fault``
never reach the key -- two jobs that demand the same semantics share
one entry.  A job with ``options.store`` bypasses the cache, as one
with ``no_cache`` does: its side effect, the artifact it persists, is
not in the cached answer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Dict, Optional

from repro.caching import LRUCache
from repro.serve.protocol import Job, JobResult

__all__ = ["ResultCache", "job_cache_key"]


def job_cache_key(job: Job) -> str:
    """The content address of a job: SHA-256 over its canonical identity.

    Two jobs collide exactly when they demand the same computation: same
    kind, same program text (or example name), same semantic options.
    The job ``id`` and operational options are excluded.  Resume jobs
    are addressed by their snapshot's content digest -- the digest
    already hashes the entire machine state.
    """
    identity = {
        "kind": job.kind,
        "source": job.source,
        "example": job.example,
        "options": job.options.semantic_dict(),
    }
    if job.snapshot is not None:
        identity["snapshot"] = job.snapshot.get("digest")
    blob = json.dumps(identity, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _bypasses(job: Job) -> bool:
    """Whether ``job`` neither reads nor writes the cache."""
    return job.options.no_cache or bool(job.options.store)


class ResultCache:
    """Content-addressed cache of successful job results."""

    def __init__(self, maxsize: int = 1024):
        self._lru = LRUCache(maxsize, metric_prefix="serve.cache")

    def get(self, job: Job) -> Optional[JobResult]:
        """A cached result for ``job`` (flagged ``cached=True``), or None.
        Jobs opting out via ``no_cache``, and jobs that write an artifact
        store, always miss (and are counted)."""
        if _bypasses(job):
            self._lru._count("miss")
            self._lru.misses += 1
            return None
        stored = self._lru.get(job_cache_key(job))
        if stored is None:
            return None
        return replace(stored, id=job.id, cached=True, attempts=0)

    def put(self, job: Job, result: JobResult) -> None:
        """Store a finished result; only ``ok`` outcomes are kept.  The
        per-request obs envelope is stripped -- it describes one
        execution, not the cacheable answer."""
        if result.ok and not _bypasses(job):
            self._lru.put(job_cache_key(job),
                          replace(result, cached=False, obs=None))

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        self._lru.clear()

    def stats(self) -> Dict[str, int]:
        return self._lru.stats()
