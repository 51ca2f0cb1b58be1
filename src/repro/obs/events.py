"""Process-wide observability event bus (zero dependencies).

The bus carries four typed events:

* :class:`Span` -- a named, nested interval (``start``/``end`` in
  ``perf_counter_ns`` ticks) with a ``parent_id`` chain.  Spans are opened
  with :meth:`ObsState.span` (a context manager) and nest via a
  *thread-local* context stack, so an FT evaluation that enters a T
  component which ``import``s F code yields a well-bracketed span tree
  ``ft.evaluate > ft.boundary > ft.import`` regardless of how deeply the
  languages nest.
* :class:`Counter` / :class:`Gauge` -- point-in-time metric samples.  The
  hot-path counters live in :mod:`repro.obs.metrics` as plain dict
  increments; :meth:`repro.obs.metrics.MetricsRegistry.flush_to` converts a
  snapshot into bus events when a trace is being exported.
* :class:`MachineEvent` -- one control transfer of the T/FT machines (the
  bus-level mirror of :class:`repro.tal.machine.TraceEvent`, with register
  and stack words already prettified to strings so the event is
  serializable).

Everything hangs off the singleton :data:`OBS`.  Instrumentation sites
guard with a single attribute check::

    from repro.obs.events import OBS
    ...
    if OBS.enabled:
        OBS.metrics.inc("t.machine.steps")

so the uninstrumented hot path pays one global load and one attribute
read.  :func:`enable` / :func:`disable` flip the switch; the bus retains
events only while ``OBS.bus.recording`` is set (``enable(record=True)``),
so long runs with metrics-only instrumentation cannot exhaust memory.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = [
    "Span", "Counter", "Gauge", "MachineEvent", "ObsEvent", "EventBus",
    "ObsState", "OBS", "enable", "disable", "enabled", "reset",
]


# ---------------------------------------------------------------------------
# Typed events
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    """A completed interval; ``parent_id`` links the nesting tree."""

    name: str
    cat: str                   # layer: f | t | ft | jit | typecheck | cli
    start: int                 # perf_counter_ns at entry
    end: int                   # perf_counter_ns at exit
    span_id: int
    parent_id: Optional[int] = None
    args: Tuple[Tuple[str, str], ...] = ()
    pid: int = 0               # originating worker pid (0 = this process)

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    def __str__(self) -> str:
        us = self.duration_ns / 1000.0
        extra = "".join(f" {k}={v}" for k, v in self.args)
        return f"span {self.name} [{self.cat}] {us:.1f}us{extra}"


@dataclass(frozen=True)
class Counter:
    """A monotonic count sampled at ``ts`` (usually a final total)."""

    name: str
    value: int
    ts: int
    cat: str = "metric"
    pid: int = 0               # originating worker pid (0 = this process)

    def __str__(self) -> str:
        return f"counter {self.name} = {self.value}"


@dataclass(frozen=True)
class Gauge:
    """A point-in-time measurement (can go up or down)."""

    name: str
    value: float
    ts: int
    cat: str = "metric"
    pid: int = 0               # originating worker pid (0 = this process)

    def __str__(self) -> str:
        return f"gauge {self.name} = {self.value}"


@dataclass(frozen=True)
class MachineEvent:
    """One control transfer, with registers and stack prettified.

    Mirrors :class:`repro.tal.machine.TraceEvent` field-for-field (so
    :func:`repro.analysis.trace.control_flow_table` consumes either), but
    holds plain strings and is therefore JSON-serializable.
    """

    step: int
    kind: str                  # enter | jmp | call | ret | bnz | halt |
                               # boundary | truncated
    target: Optional[str]
    regs: Tuple[Tuple[str, str], ...]
    stack: Tuple[str, ...]
    detail: str = ""
    ts: int = 0
    pid: int = 0               # originating worker pid (0 = this process)

    def pretty_label(self) -> str:
        return self.target.split("%")[0] if self.target else ""

    def __str__(self) -> str:
        regs = ", ".join(f"{r} -> {w}" for r, w in self.regs)
        stack = " :: ".join(self.stack) or "nil"
        where = f" -> {self.pretty_label()}" if self.target else ""
        info = f" ({self.detail})" if self.detail else ""
        return f"[{self.step}] {self.kind}{where}{info} | {regs} | {stack}"


ObsEvent = Union[Span, Counter, Gauge, MachineEvent]


# ---------------------------------------------------------------------------
# The bus
# ---------------------------------------------------------------------------

class EventBus:
    """Publish/subscribe fan-out with an optional in-memory recording."""

    def __init__(self) -> None:
        self._subscribers: List[Callable[[ObsEvent], None]] = []
        self._events: List[ObsEvent] = []
        self._lock = threading.Lock()
        self.recording = False

    @property
    def active(self) -> bool:
        """Is anyone listening?  Publishers may skip event construction
        entirely when not."""
        return self.recording or bool(self._subscribers)

    def publish(self, event: ObsEvent) -> None:
        if self.recording:
            with self._lock:
                self._events.append(event)
        for fn in self._subscribers:
            fn(event)

    def subscribe(self, fn: Callable[[ObsEvent], None]) -> Callable[[], None]:
        """Register a listener; returns an unsubscribe thunk."""
        self._subscribers.append(fn)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(fn)
            except ValueError:
                pass

        return unsubscribe

    def events(self) -> Tuple[ObsEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def drain(self) -> List[ObsEvent]:
        """Return and clear the recording."""
        with self._lock:
            out, self._events = self._events, []
        return out

    def clear(self) -> None:
        with self._lock:
            self._events.clear()


# ---------------------------------------------------------------------------
# Spans: the thread-local context stack
# ---------------------------------------------------------------------------

_span_ids = itertools.count(1)


class _NoopSpan:
    """Shared, reentrant do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _SpanHandle:
    __slots__ = ("state", "name", "cat", "args", "start", "span_id",
                 "parent_id")

    def __init__(self, state: "ObsState", name: str, cat: str,
                 args: Dict[str, Any]):
        self.state = state
        self.name = name
        self.cat = cat
        self.args = tuple((k, str(v)) for k, v in args.items())

    def __enter__(self) -> "_SpanHandle":
        stack = self.state._span_stack()
        self.parent_id = stack[-1] if stack else None
        self.span_id = next(_span_ids)
        stack.append(self.span_id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        stack = self.state._span_stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        else:                           # unbalanced exit: repair the stack
            while stack and stack[-1] != self.span_id:
                stack.pop()
            if stack:
                stack.pop()
        span = Span(self.name, self.cat, self.start, end, self.span_id,
                    self.parent_id, self.args)
        self.state.metrics.observe(f"span.{self.name}.us",
                                   span.duration_ns / 1000.0)
        if self.state.bus.active:
            self.state.bus.publish(span)


# ---------------------------------------------------------------------------
# The process-wide singleton
# ---------------------------------------------------------------------------

class ObsState:
    """Master switch + bus + metrics registry + span context."""

    __slots__ = ("enabled", "bus", "metrics", "_local")

    def __init__(self) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.enabled = False
        self.bus = EventBus()
        self.metrics = MetricsRegistry()
        self._local = threading.local()

    def _span_stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, cat: str = "", **args):
        """Open a nested span; a no-op singleton when disabled."""
        if not self.enabled:
            return _NOOP_SPAN
        return _SpanHandle(self, name, cat, args)

    def current_span_id(self) -> Optional[int]:
        stack = self._span_stack()
        return stack[-1] if stack else None

    def gauge(self, name: str, value: float, cat: str = "metric") -> None:
        """Record a gauge in the registry and on the bus (if listening)."""
        self.metrics.set_gauge(name, value)
        if self.bus.active:
            self.bus.publish(Gauge(name, value, time.perf_counter_ns(), cat))


OBS = ObsState()


def enable(record: bool = True) -> None:
    """Turn instrumentation on; ``record`` retains bus events in memory."""
    OBS.bus.recording = record
    OBS.enabled = True


def disable() -> None:
    """Turn instrumentation off (recorded events are kept until reset)."""
    OBS.enabled = False
    OBS.bus.recording = False


def enabled() -> bool:
    return OBS.enabled


def reset() -> None:
    """Clear recorded events and all metrics (the switch is untouched)."""
    OBS.bus.clear()
    OBS.metrics.reset()
