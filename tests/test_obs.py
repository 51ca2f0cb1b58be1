"""Tests for the unified observability layer (:mod:`repro.obs`).

Covers the event bus, metrics registry, span nesting across language
boundaries, JSONL/Chrome export round-trips, the bounded machine trace,
and the JIT compile cache counters.
"""

import json

import pytest

from repro import obs
from repro.f.syntax import App, BinOp, FInt, IntE, Lam, Var
from repro.ft.machine import evaluate_ft
from repro.compile import clear_compile_cache, compile_term
from repro.obs.events import Counter, Gauge, MachineEvent, Span
from repro.obs.trace_export import (
    build_span_tree, event_from_dict, event_to_dict, export_chrome,
    export_jsonl, load_jsonl,
)
from repro.papers_examples.fig17_factorial import build_fact_t


@pytest.fixture(autouse=True)
def obs_off():
    """Every test starts and ends with instrumentation off and clean."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def run_fact_t(n=2, **kwargs):
    return evaluate_ft(App(build_fact_t(), (IntE(n),)), **kwargs)


class TestEventBus:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        run_fact_t()
        assert obs.OBS.bus.events() == ()
        assert obs.OBS.metrics.snapshot()["counters"] == {}

    def test_recording_retains_events(self):
        obs.enable(record=True)
        run_fact_t()
        events = obs.OBS.bus.events()
        assert events
        assert any(isinstance(e, Span) for e in events)
        assert any(isinstance(e, MachineEvent) for e in events)

    def test_metrics_only_mode_retains_nothing(self):
        obs.enable(record=False)
        run_fact_t()
        assert obs.OBS.bus.events() == ()
        counters = obs.OBS.metrics.snapshot()["counters"]
        assert counters["t.machine.steps"] > 0

    def test_subscribe_and_unsubscribe(self):
        seen = []
        unsubscribe = obs.OBS.bus.subscribe(seen.append)
        obs.enable(record=False)
        run_fact_t()
        assert seen
        count = len(seen)
        unsubscribe()
        run_fact_t()
        assert len(seen) == count

    def test_drain_clears(self):
        obs.enable(record=True)
        run_fact_t()
        drained = obs.OBS.bus.drain()
        assert drained
        assert obs.OBS.bus.events() == ()


class TestMetrics:
    def test_counters_accumulate(self):
        obs.enable(record=False)
        run_fact_t()
        first = obs.OBS.metrics.counter("t.machine.steps")
        run_fact_t()
        assert obs.OBS.metrics.counter("t.machine.steps") == 2 * first

    def test_boundary_crossings_fig17(self):
        # fact_t applied: two F->T crossings (the arrow boundary plus the
        # callback's boundary) and one T->F import of the argument.
        obs.enable(record=False)
        run_fact_t()
        counters = obs.OBS.metrics.snapshot()["counters"]
        assert counters["ft.boundary.f_to_t"] == 2
        assert counters["ft.boundary.t_to_f"] == 1

    def test_reset(self):
        obs.enable(record=False)
        run_fact_t()
        obs.reset()
        assert obs.OBS.metrics.snapshot()["counters"] == {}

    def test_snapshot_has_span_histograms(self):
        obs.enable(record=True)
        run_fact_t()
        histograms = obs.OBS.metrics.snapshot()["histograms"]
        assert "span.ft.evaluate.us" in histograms
        assert histograms["span.ft.evaluate.us"]["count"] == 1

    def test_flush_to_publishes_totals(self):
        obs.enable(record=True)
        run_fact_t()
        obs.OBS.metrics.flush_to(obs.OBS.bus)
        counters = [e for e in obs.OBS.bus.events()
                    if isinstance(e, Counter)]
        by_name = {c.name: c.value for c in counters}
        assert by_name["ft.boundary.f_to_t"] == 2

    def test_format_table_mentions_counters(self):
        obs.enable(record=False)
        run_fact_t()
        table = obs.OBS.metrics.format_table()
        assert "t.machine.steps" in table


class TestSpanNesting:
    def test_fig17_spans_are_well_bracketed(self):
        # An FT program crossing the boundary twice must produce the
        # F > T > F tree: ft.evaluate contains ft.boundary contains
        # ft.import, via the thread-local context stack.
        obs.enable(record=True)
        run_fact_t()
        roots = build_span_tree(obs.OBS.bus.events())
        evaluates = [r for r in roots if r.span.name == "ft.evaluate"]
        assert len(evaluates) == 1
        root = evaluates[0]
        assert root.span.cat == "f"
        boundaries = [n for n in root.walk()
                      if n.span.name == "ft.boundary"]
        assert len(boundaries) == 2    # two F->T crossings
        imports = [n for b in boundaries for n in b.walk()
                   if n.span.name == "ft.import"]
        assert len(imports) == 1       # one T->F crossing, inside a boundary
        assert imports[0].span.cat == "f"

    def test_nested_spans_within_one_run(self):
        obs.enable(record=True)
        run_fact_t()
        spans = {e.span_id: e for e in obs.OBS.bus.events()
                 if isinstance(e, Span)}
        for span in spans.values():
            if span.parent_id is not None:
                parent = spans[span.parent_id]
                assert parent.start <= span.start
                assert span.end <= parent.end

    def test_disabled_span_is_noop(self):
        with obs.OBS.span("never", "test"):
            pass
        assert obs.OBS.bus.events() == ()
        assert obs.OBS.current_span_id() is None


class TestJsonlRoundTrip:
    def sample_events(self):
        return [
            Span("ft.evaluate", "f", 10, 90, 1, None, (("ty", "int"),)),
            Span("ft.boundary", "t", 20, 70, 2, 1),
            Counter("t.machine.steps", 42, 95),
            Gauge("fuel.remaining", 17.5, 96),
            MachineEvent(3, "jmp", "loop%2", (("r1", "5"),),
                         ("5", "ret%1"), "branch taken", 30),
        ]

    def test_event_dict_inverse(self):
        for event in self.sample_events():
            assert event_from_dict(event_to_dict(event)) == event

    def test_round_trip_equality(self):
        events = self.sample_events()
        assert load_jsonl(export_jsonl(events)) == events

    def test_export_is_idempotent(self):
        events = self.sample_events()
        text = export_jsonl(events)
        assert export_jsonl(load_jsonl(text)) == text

    def test_file_round_trip(self, tmp_path):
        events = self.sample_events()
        path = str(tmp_path / "trace.jsonl")
        export_jsonl(events, path)
        assert load_jsonl(path) == events

    def test_live_trace_round_trips(self):
        obs.enable(record=True)
        run_fact_t()
        obs.OBS.metrics.flush_to(obs.OBS.bus)
        events = obs.OBS.bus.drain()
        assert load_jsonl(export_jsonl(events)) == events

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            event_from_dict({"type": "mystery"})


class TestChromeExport:
    def test_document_shape(self):
        obs.enable(record=True)
        run_fact_t()
        obs.OBS.metrics.flush_to(obs.OBS.bus)
        document = json.loads(export_chrome(obs.OBS.bus.events()))
        phases = {e["ph"] for e in document["traceEvents"]}
        assert {"X", "C", "i"} <= phases


class TestBoundedTrace:
    def test_trace_truncates_with_sentinel(self):
        _, machine = run_fact_t(3, trace=True, max_events=4)
        assert len(machine.trace) == 5          # 4 events + sentinel
        assert machine.trace[-1].kind == "truncated"
        assert "capped at 4" in machine.trace[-1].detail

    def test_truncation_counter(self):
        obs.enable(record=False)
        run_fact_t(3, trace=True, max_events=2)
        assert obs.OBS.metrics.counter("trace.truncated") == 1

    def test_unbounded_by_default(self):
        _, machine = run_fact_t(3, trace=True)
        assert all(e.kind != "truncated" for e in machine.trace)

    def test_bus_still_sees_full_stream_after_cap(self):
        obs.enable(record=True)
        _, machine = run_fact_t(3, trace=True, max_events=2)
        bus_machine_events = [e for e in obs.OBS.bus.events()
                              if isinstance(e, MachineEvent)]
        assert len(bus_machine_events) > len(machine.trace)


class TestControlFlowUnification:
    def test_table_identical_from_either_stream(self):
        from repro.analysis.trace import control_flow_table

        obs.enable(record=True)
        _, machine = run_fact_t(trace=True)
        bus_events = [e for e in obs.OBS.bus.events()
                      if isinstance(e, MachineEvent)]
        from_trace = control_flow_table(machine.trace)
        from_bus = control_flow_table(bus_events)
        assert from_trace == from_bus

    def test_table_survives_jsonl_round_trip(self):
        from repro.analysis.trace import control_flow_table

        obs.enable(record=True)
        _, machine = run_fact_t(trace=True)
        bus_events = [e for e in obs.OBS.bus.events()
                      if isinstance(e, MachineEvent)]
        reloaded = load_jsonl(export_jsonl(bus_events))
        assert (control_flow_table(reloaded)
                == control_flow_table(machine.trace))


class TestJitCache:
    def lam(self):
        return Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))

    def test_repeat_compile_hits_cache(self):
        clear_compile_cache()
        first = compile_term(self.lam())
        second = compile_term(self.lam())
        assert second is first

    def test_hit_miss_counters(self):
        clear_compile_cache()
        obs.enable(record=False)
        compile_term(self.lam())
        compile_term(self.lam())
        counters = obs.OBS.metrics.snapshot()["counters"]
        assert counters["jit.cache.miss"] == 1
        assert counters["jit.cache.hit"] == 1
        assert counters["jit.compile"] == 1

    def test_fig11_source_recompilation_hits_cache(self):
        from repro.compile import jit_rewrite
        from repro.papers_examples.fig11_jit import build_source

        clear_compile_cache()
        obs.enable(record=False)
        jit_rewrite(build_source())
        jit_rewrite(build_source())
        counters = obs.OBS.metrics.snapshot()["counters"]
        assert counters["jit.cache.hit"] >= 1
        assert counters["jit.compile"] == counters["jit.cache.miss"]

    def test_cached_compile_still_evaluates(self):
        clear_compile_cache()
        compiled_a = compile_term(self.lam()).wrapped
        compiled_b = compile_term(self.lam()).wrapped
        got_a, _ = evaluate_ft(App(compiled_a, (IntE(4),)))
        got_b, _ = evaluate_ft(App(compiled_b, (IntE(4),)))
        assert got_a == got_b == IntE(5)
