"""Per-layer timing for the traced run.

The benchmark times each layer from its own wrappers around calls into
the layer's public functions (:class:`Layers`); the untraced run uses
:data:`UNTRACED`, which calls straight through.  Boundary value
translation has no public entry the benchmark calls, so the traced run
wraps ``f_to_t``/``t_to_f`` where :mod:`repro.ft.machine` binds them
(:func:`translation_timed`).  Counts come from the existing
:mod:`repro.obs` counters, enabled with ``record=False`` so that no
event-bus subscriber reroutes the fast T engine to the reference walker.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator

#: Top-level layers: their times are disjoint within one op, so the op's
#: wall time minus their sum is the time no layer accounts for.
TOP_LEVEL = ("surface.parse", "ft.typecheck", "compile.compile",
             "compile.validate", "ft.machine.evaluate")


class Layers:
    """Accumulates wall time per layer name, in milliseconds."""

    def __init__(self) -> None:
        self.ms: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ms[name] += (time.perf_counter_ns() - start) / 1e6

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n


class _Untraced:
    """Calls straight through; records nothing."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def count(name, n) -> None:
        return None


UNTRACED = _Untraced()


@contextmanager
def translation_timed(layers: Layers) -> Iterator[None]:
    """Time boundary value translation into ``ft.boundary.translate``."""
    import repro.ft.machine as machine

    originals = machine.f_to_t, machine.t_to_f

    def wrap(fn):
        def timed(*args):
            return layers.call("ft.boundary.translate", fn, *args)
        return timed

    machine.f_to_t, machine.t_to_f = (wrap(fn) for fn in originals)
    try:
        yield
    finally:
        machine.f_to_t, machine.t_to_f = originals


@contextmanager
def obs_counters() -> Iterator[Dict[str, int]]:
    """Enable metrics-only observability; yields a dict that holds the
    counter values once the block exits."""
    from repro import obs

    out: Dict[str, int] = {}
    obs.reset()
    obs.enable(record=False)
    try:
        yield out
    finally:
        obs.disable()
        out.update(obs.OBS.metrics.snapshot()["counters"])
        obs.reset()


def hit_ratio(before: Dict[str, int], after: Dict[str, int]) -> float:
    """Hits over lookups between two ``LRUCache.stats()`` readings."""
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0
