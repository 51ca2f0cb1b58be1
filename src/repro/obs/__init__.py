"""Unified observability: spans, counters, and structured trace export.

The paper's own "evaluation" is its control-flow diagrams (Figs 4, 12, 16,
17) -- exactly the artifacts a tracing layer produces.  This package makes
that first-class across every layer of the reproduction:

* :mod:`repro.obs.events` -- a process-wide, zero-dependency event bus
  with typed events (:class:`Span`, :class:`Counter`, :class:`Gauge`,
  :class:`MachineEvent`) and a thread-local context stack so spans nest
  correctly across ``ft.evaluate`` -> ``ft.boundary`` -> ``ft.import``
  however deeply the FT machine's control stack nests;
* :mod:`repro.obs.metrics` -- counters/histograms for machine steps,
  boundary crossings (F->T and T->F separately), typecheck invocations per
  judgment, substitutions, and JIT compiles/cache hits;
* :mod:`repro.obs.trace_export` -- JSONL and Chrome-trace exporters plus a
  loader so traces round-trip.

Instrumentation is off by default; the hooks wired through the machines,
typecheckers, boundary translations, and the JIT all guard on a single
attribute check (``OBS.enabled``), so the uninstrumented hot path pays one
attribute read.  Typical use::

    from repro import obs

    obs.enable()                       # record events + count metrics
    value, machine = evaluate_ft(program, trace=True)
    obs.disable()

    events = obs.OBS.bus.events()      # typed Span/MachineEvent stream
    print(obs.OBS.metrics.format_table())
    obs.export_jsonl(events, "trace.jsonl")

or from the CLI: ``funtal trace fig17 --format table`` and
``funtal stats fig17 --json``.  See ``docs/observability.md``.
"""

from repro.obs.distributed import (
    TraceContext, WorkerCapture, new_trace_id, stitch_envelope,
)
from repro.obs.events import (
    Counter, EventBus, Gauge, MachineEvent, OBS, ObsEvent, ObsState, Span,
    disable, enable, enabled, reset,
)
from repro.obs.metrics import HistogramSummary, MetricsRegistry
from repro.obs.profile import PROFILER, Profiler, ProfileSnapshot, \
    content_hash
from repro.obs.trace_export import (
    SpanNode, build_span_tree, event_from_dict, event_to_dict,
    export_chrome, export_jsonl, load_jsonl,
)

__all__ = [
    "Counter", "EventBus", "Gauge", "MachineEvent", "OBS", "ObsEvent",
    "ObsState", "Span", "disable", "enable", "enabled", "reset",
    "HistogramSummary", "MetricsRegistry",
    "PROFILER", "Profiler", "ProfileSnapshot", "content_hash",
    "TraceContext", "WorkerCapture", "new_trace_id", "stitch_envelope",
    "SpanNode", "build_span_tree", "event_from_dict", "event_to_dict",
    "export_chrome", "export_jsonl", "load_jsonl",
]
