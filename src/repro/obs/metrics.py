"""Counters, gauges, and histograms for the observability layer.

A :class:`MetricsRegistry` is a plain-dict aggregator: ``inc`` is one
dictionary update, so per-machine-step counting stays cheap even when
instrumentation is on.  The registry is deliberately decoupled from the
event bus -- per-increment events would flood a trace with millions of
lines -- and instead :meth:`MetricsRegistry.flush_to` publishes one
:class:`~repro.obs.events.Counter`/:class:`~repro.obs.events.Gauge` event
per metric (the final totals) when an exporter wants them in-band.

Canonical counter names used by the instrumentation hooks:

=================================  ============================================
``f.machine.steps``                pure-F reduction steps (both machines)
``t.machine.steps``                T instruction/terminator steps
``t.machine.components_loaded``    component heap merges
``t.machine.load.template_hit``    loads of a component with a heap that
                                   bound an already relocated image as is
``t.machine.load.template_miss``   loads that renamed the component afresh
                                   (a new image; only a component's
                                   first is kept)
``t.subst.instantiate``            code-block instantiations at jump time
``t.subst.unpack``                 type substitutions from ``unpack``
``tal.fast.jit.promoted``          fast-tier blocks fused by the template JIT
``tal.fast.jit.loops``             JIT'd blocks that jumped back into
                                   themselves, re-rendered so that one call
                                   runs the whole loop
``ft.boundary.f_to_t``             F-to-T crossings (``tauFT e`` components run)
``ft.boundary.t_to_f``             T-to-F crossings (``import`` evaluations)
``ft.translate.f_to_t``            value translations ``TFtau(v, M)``
``ft.translate.t_to_f``            value translations ``tauFT(w, M)``
``typecheck.t.instr.<op>``         T instruction typing rules, per opcode
``typecheck.t.term.<op>``          T terminator typing rules, per opcode
``typecheck.t.component``          component checks
``typecheck.ft.expr.<form>``       FT expression judgments, per syntax form
``typecheck.ft.import`` / ``.protect`` / ``.boundary``  the Fig 7 rules
``jit.compile``                    actual compilations performed
``jit.cache.hit`` / ``.miss`` / ``.eviction``  compile-cache outcomes
``trace.truncated``                bounded traces that hit their event cap
=================================  ============================================

The serving layer (:mod:`repro.serve`) adds its own family:

===============================  ============================================
``serve.jobs.submitted``         jobs accepted into the pool queue
``serve.jobs.completed``         jobs resolved ``ok``
``serve.jobs.failed``            jobs resolved error/fuel/timeout/crashed
``serve.jobs.retried``           re-dispatches after a crash or hang
``serve.jobs.rejected``          backpressure/protocol rejections (server)
``serve.cache.hit`` / ``.miss`` / ``.eviction``  result-cache outcomes
``serve.worker.spawn``           worker processes started (incl. respawns)
``serve.worker.crash``           workers lost to a crashed job
``serve.worker.timeout``         workers killed for overrunning a deadline
``serve.worker.respawn``         replacements brought up after a loss
``serve.connections``            TCP connections accepted (counter)
``serve.queue.depth``            pending + backoff-delayed jobs (gauge)
``serve.job.ms``                 submit-to-resolve latency (histogram)
===============================  ============================================

The resilience layer (:mod:`repro.resilience`) adds its own family
(see ``docs/resilience.md``):

===================================  ========================================
``resilience.soft_limit.<r>``        budget soft-warnings (80% of ceiling),
                                     per resource ``fuel``/``heap``/``depth``
``resilience.exhausted.<r>``         governors tripped, per resource
``resilience.budget.<r>_used``       spend at the last soft-warning (gauge)
``resilience.snapshot.captured``     machine snapshots taken
``resilience.snapshot.restored``     snapshots verified + restored
``resilience.snapshot.bytes``        snapshot payload sizes (histogram)
``resilience.chaos.injected``        chaos faults fired (also per-seam:
                                     ``resilience.chaos.injected.<seam>``)
``resilience.jit_fallback.compile``  lambdas quarantined at compile time
``resilience.jit_fallback.run``      guarded runs that fell back to the
                                     interpreter after a run-time fault
``jit.quarantine.added``             lambdas added to the circuit breaker
``jit.quarantine.hits``              rewrites that skipped a quarantined
                                     lambda
``jit.quarantine.size``              current circuit-breaker size (gauge)
===================================  ========================================

The environment-machine fast path (:mod:`repro.f.cek` and the memo
caches in :mod:`repro.tal.subst` / :mod:`repro.tal.equality`) adds its
own family (see ``docs/performance.md``):

===================================  ========================================
``tal.subst.cache.ty.<o>``           type-substitution memo outcomes, per
                                     outcome ``hit``/``miss``/``eviction``
``tal.subst.cache.ctype.<o>``        ``instantiate_code_type`` memo outcomes
``tal.subst.cache.block.<o>``        ``instantiate_code_block`` memo outcomes
                                     (one per jump; keyed on the loaded
                                     block's pre-rename source)
``tal.equality.cache.<o>``           ``types_equal`` top-level memo outcomes
``ft.translate.cache.<o>``           ``type_translation`` memo outcomes
===================================  ========================================

(The CEK engine itself introduces no new counters: it reports the same
``f.machine.steps`` as the substitution stepper, 1:1, so traces and
budget accounting are engine-independent.)

The hot-code profiler (:mod:`repro.obs.profile`) and the distributed
tracing layer (:mod:`repro.obs.distributed`) add:

===================================  ========================================
``profile.steps``                    machine steps attributed while the
                                     profiler was enabled
``profile.sites``                    distinct content-hashed code sites seen
                                     (gauge, set at snapshot time)
``serve.obs.envelopes``              worker obs envelopes folded into the
                                     parent registry
``serve.obs.spans_stitched``         worker-side spans re-parented into the
                                     parent span tree
===================================  ========================================

Histograms now carry quantiles: every ``as_dict`` reports ``p50``/
``p95``/``p99`` from a log-bucket sketch (~1% relative error) alongside
the exact count/mean/min/max, and snapshots embed the sketch's integer
buckets so cross-process merges (:meth:`MetricsRegistry.merge_snapshot`)
stay exact and associative.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = ["HistogramSummary", "MetricsRegistry"]

#: Relative accuracy of the log-bucket quantile sketch: bucket i covers
#: ``(gamma^(i-1), gamma^i]``, so any reported quantile is within ~1% of
#: the true value.  Integer bucket counts make merges exactly associative.
_GAMMA = 1.02
_LOG_GAMMA = math.log(_GAMMA)


class HistogramSummary:
    """Streaming summary with quantiles: a DDSketch-style log-bucket
    histogram on top of the count/total/min/max running summary.

    Positive observations land in geometric buckets keyed by
    ``ceil(log(v) / log(gamma))``; non-positive ones are counted in a
    dedicated zero bucket.  Because the state is plain integer counts,
    :meth:`merge` is exact and associative -- the property the serve
    fleet relies on when worker-side snapshots are folded into the
    parent registry in any order.
    """

    __slots__ = ("count", "total", "min", "max", "_buckets", "_zeros")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: Dict[int, int] = {}
        self._zeros = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value > 0.0:
            key = int(math.ceil(math.log(value) / _LOG_GAMMA))
            self._buckets[key] = self._buckets.get(key, 0) + 1
        else:
            self._zeros += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1), within ~1% relative error,
        clamped to the exact observed [min, max] envelope."""
        if not self.count:
            return 0.0
        rank = q * (self.count - 1)
        seen = self._zeros
        if rank < seen:
            return min(self.min, 0.0) if self.min is not None else 0.0
        value = self.max if self.max is not None else 0.0
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            if rank < seen:
                # midpoint of (gamma^(key-1), gamma^key]
                value = 2.0 * (_GAMMA ** key) / (_GAMMA + 1.0)
                break
        lo = self.min if self.min is not None else value
        hi = self.max if self.max is not None else value
        return min(max(value, lo), hi)

    def merge(self, other: "HistogramSummary") -> None:
        """Fold another summary in (exact: integer bucket adds)."""
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max
        for key, n in other._buckets.items():
            self._buckets[key] = self._buckets.get(key, 0) + n
        self._zeros += other._zeros

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "HistogramSummary":
        """Rebuild a summary from its :meth:`as_dict` form (the
        ``sketch`` sub-dict carries the mergeable bucket state)."""
        hist = cls()
        hist.count = int(data.get("count", 0))
        hist.total = float(data.get("total", 0.0))
        if hist.count:
            hist.min = float(data.get("min", 0.0))
            hist.max = float(data.get("max", 0.0))
        sketch = data.get("sketch") or {}
        hist._zeros = int(sketch.get("zeros", 0))
        hist._buckets = {int(k): int(n)
                         for k, n in (sketch.get("buckets") or {}).items()}
        return hist

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": round(self.total, 3),
            "mean": round(self.mean, 3),
            "min": round(self.min, 3) if self.min is not None else 0.0,
            "max": round(self.max, 3) if self.max is not None else 0.0,
            "p50": round(self.quantile(0.50), 3),
            "p95": round(self.quantile(0.95), 3),
            "p99": round(self.quantile(0.99), 3),
            "sketch": {
                "zeros": self._zeros,
                "buckets": {str(k): n
                            for k, n in sorted(self._buckets.items())},
            },
        }


class MetricsRegistry:
    """Process-wide named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramSummary] = {}
        self._lock = threading.Lock()

    # -- the hot path ---------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        # One dict update; racing threads may drop an increment, which is
        # an accepted trade for not locking the machine's step loop.
        self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms.setdefault(name, HistogramSummary())
        hist.observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    # -- reading --------------------------------------------------------

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy: ``{"counters": ..., "gauges": ...,
        "histograms": ...}`` with deterministic key order."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    k: v.as_dict()
                    for k, v in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- cross-process folding ------------------------------------------

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` dict (typically shipped back from a
        worker process) into this registry: counters add, gauges are
        last-write-wins, histograms merge bucket-wise.  The histogram
        merge is exact and associative -- folding worker snapshots in
        any arrival order yields identical quantiles.
        """
        with self._lock:
            for name, value in (snap.get("counters") or {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in (snap.get("gauges") or {}).items():
                self._gauges[name] = value
            for name, data in (snap.get("histograms") or {}).items():
                incoming = HistogramSummary.from_wire(data)
                hist = self._histograms.get(name)
                if hist is None:
                    self._histograms[name] = incoming
                else:
                    hist.merge(incoming)

    # -- bridging to the bus --------------------------------------------

    def flush_to(self, bus, ts: Optional[int] = None) -> int:
        """Publish one Counter/Gauge event per metric (final totals);
        returns the number of events published."""
        from repro.obs.events import Counter, Gauge

        if ts is None:
            ts = time.perf_counter_ns()
        published = 0
        for name, value in sorted(self._counters.items()):
            bus.publish(Counter(name, value, ts))
            published += 1
        for name, value in sorted(self._gauges.items()):
            bus.publish(Gauge(name, value, ts))
            published += 1
        return published

    def format_table(self) -> str:
        """Human-readable snapshot for ``funtal stats``."""
        snap = self.snapshot()
        lines: List[str] = []
        if snap["counters"]:
            width = max(len(k) for k in snap["counters"])
            lines.append("counters")
            lines.append("--------")
            for name, value in snap["counters"].items():
                lines.append(f"{name:<{width}}  {value}")
        if snap["gauges"]:
            width = max(len(k) for k in snap["gauges"])
            lines.append("")
            lines.append("gauges")
            lines.append("------")
            for name, value in snap["gauges"].items():
                lines.append(f"{name:<{width}}  {value}")
        if snap["histograms"]:
            width = max(len(k) for k in snap["histograms"])
            lines.append("")
            lines.append(
                "histograms (count / mean / p50 / p95 / p99 / max)")
            lines.append(
                "-------------------------------------------------")
            for name, h in snap["histograms"].items():
                lines.append(
                    f"{name:<{width}}  {h['count']} / {h['mean']} / "
                    f"{h['p50']} / {h['p95']} / {h['p99']} / {h['max']}")
        return "\n".join(lines) if lines else "(no metrics recorded)"
