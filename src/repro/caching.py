"""Process-wide caching and interning primitives.

This module is dependency-neutral (it imports only :mod:`repro.obs`,
which imports nothing else from the package), so *any* layer -- syntax
nodes, the TAL substitution engine, the JIT, the serve result cache --
can use it without creating an import cycle.

Three pieces:

* :class:`LRUCache` -- a small, thread-safe, generic LRU with hit/miss/
  eviction accounting and optional :mod:`repro.obs` counter mirroring
  (``<prefix>.hit`` / ``.miss`` / ``.eviction``).  Moved here from
  :mod:`repro.serve.cache`, which re-exports it for compatibility; it
  also backs the JIT compile cache and the TAL substitution caches.
* :class:`PicklableSlots` -- a mixin giving frozen ``slots=True``
  dataclasses a portable ``__reduce__``.  Python only generates the
  ``__getstate__``/``__setstate__`` pair that makes frozen+slots
  dataclasses picklable from 3.11 on; reducing to
  ``(cls, field-values)`` works uniformly on every supported version
  and round-trips through the class constructor (so ``__post_init__``
  revalidation runs on load).
* :class:`InternTable` -- a bounded hash-cons table: structurally equal
  nodes collapse to one canonical instance, so downstream equality
  checks hit their ``a is b`` fast path.  First instance wins; the
  table never evicts (types are small and programs mint finitely many),
  it just stops admitting new entries at ``maxsize``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

from repro.obs.events import OBS

__all__ = ["LRUCache", "PicklableSlots", "InternTable", "intern_singleton"]


def intern_singleton(cls):
    """Class decorator: collapse a field-less frozen node to one shared
    instance.  ``cls()`` -- including the constructor call pickling emits
    via :class:`PicklableSlots` -- always returns the same object, so
    identity comparison is a complete equality check for these types.
    Apply *above* ``@dataclass`` (``slots=True`` replaces the class, so
    the singleton must be minted from the final class object).
    """
    inst = cls()

    def __new__(_cls):
        return inst

    cls.__new__ = __new__
    return cls


class LRUCache:
    """Bounded least-recently-used mapping with hit/miss accounting.

    ``metric_prefix`` mirrors the accounting into the process-wide
    metrics registry (``<prefix>.hit`` / ``.miss`` / ``.eviction``) when
    instrumentation is enabled, so cache behaviour shows up in
    ``funtal stats`` alongside machine steps and boundary crossings.
    """

    def __init__(self, maxsize: int = 1024,
                 metric_prefix: Optional[str] = None):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.metric_prefix = metric_prefix
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _count(self, outcome: str) -> None:
        if self.metric_prefix and OBS.enabled:
            OBS.metrics.inc(f"{self.metric_prefix}.{outcome}")

    def get(self, key: Hashable, default: Any = None,
            count: bool = True) -> Any:
        """Look ``key`` up, refreshing its recency.  ``count=False`` skips
        the hit/miss accounting, for a second-level probe whose outcome
        the caller has already counted."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                hit = False
            else:
                self._data.move_to_end(key)
                hit = True
            if count:
                if hit:
                    self.hits += 1
                else:
                    self.misses += 1
        if count:
            self._count("hit" if hit else "miss")
        return value if hit else default

    def put(self, key: Hashable, value: Any) -> None:
        evicted = False
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                evicted = True
        if evicted:
            self._count("eviction")

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class PicklableSlots:
    """Mixin: portable pickling for frozen ``slots=True`` dataclasses.

    Reduces an instance to ``(class, tuple-of-field-values)`` in field
    order, which matches the generated ``__init__`` signature.  Classes
    whose ``__post_init__`` canonicalizes fields (sorting, tupling) are
    safe: canonicalization is idempotent, so re-running it on load is a
    no-op.
    """

    __slots__ = ()

    def __reduce__(self):
        cls = type(self)
        return (cls, tuple(getattr(self, name)
                           for name in cls.__dataclass_fields__))


class InternTable:
    """A bounded hash-cons table for immutable, hashable nodes.

    ``canon(node)`` returns the first structurally-equal node ever
    admitted, so repeated construction of the same type collapses to one
    instance and identity comparison becomes a valid fast path for
    structural equality.  Admission stops (but lookups keep working) once
    ``maxsize`` distinct nodes are held -- interning is an optimization,
    never a requirement.
    """

    def __init__(self, maxsize: int = 8192):
        self.maxsize = maxsize
        self._table: Dict[Any, Any] = {}

    def canon(self, node: Any) -> Any:
        cached = self._table.get(node)
        if cached is not None:
            return cached
        if len(self._table) < self.maxsize:
            self._table[node] = node
        return node

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        self._table.clear()
