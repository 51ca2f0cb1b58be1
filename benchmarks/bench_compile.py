"""Whole-F compiler benchmarks, written to ``BENCH_compile.json``.

Three sections, doubling as the CI gate for the compiler:

* ``compile_time`` -- cold pipeline time (typecheck + closure conversion
  + codegen + optimize) and warm (memoized) lookup for the Fig 17
  functional factorial and a higher-order combinator program;
* ``compiled_vs_interpreted`` -- wall time and fuel for the same program
  run interpreted (CEK) and compiled.  Compiled closures are packed
  existentials called in T, so the recursive case crosses the F/T
  boundary a fixed number of times and its fuel is linear in depth (a
  constant factor over the source, see ``docs/performance.md``); no
  speedup is asserted -- the assertion is value agreement.  The
  non-recursive higher-order case is the fairer picture of per-call
  overhead;
* ``paper_examples`` -- the gate: every closed pure-F paper example must
  compile, typecheck, and pass translation validation.  A regression
  that breaks compilation or validation of a paper example fails CI
  here;
* ``fast_tier`` -- the T-engine gate: the direct-threaded fast tier
  (``repro.tal.fast``) must beat the reference ``TalMachine`` by >=10x
  wall-clock on a T-dominated hot loop, and must not lose to it on the
  compiled factorial.  The *whole-program* compiled-vs-interpreted gap
  on ``fact_f`` is recorded as ``gap_history`` and gated as the
  ``fact_f_boundary_gap`` entry of ``known_regressions``.
"""

import json
import pathlib
import time

import pytest

from repro.f.syntax import App, BinOp, FInt, IntE, Lam, Var
from repro.ft.machine import FTMachine
from repro.ft.typecheck import check_ft_expr
from repro.papers_examples import example_entries
from repro.papers_examples.fig17_factorial import build_count_t, build_fact_f
from repro.resilience.budget import Budget
from repro.resilience.safety_net import Quarantine
from repro.compile.pipeline import (
    clear_compile_cache, compile_term, is_general_compilable,
)
from repro.compile.validate import validate_compilation
from repro.stdlib.prelude import compose, twice
from repro.tal.syntax import Component

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_BENCH_PATH = _REPO_ROOT / "BENCH_compile.json"

_RESULTS = {}

#: Gate on the compiled-vs-interpreted wall-clock gap of ``fact_f`` on
#: the fast tier: 3x the worst of 12 fresh runs (8.0-8.9x).
FACT_F_GAP_GATE = 27.0

ROUNDS = 5
FACT_N = 6          # compiled factorial fuel is linear in n (78 per level)
RUN_FUEL = 10_000_000


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    yield
    if _RESULTS:
        _BENCH_PATH.write_text(
            json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")


def _best(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _best_pair(a, b, rounds):
    """Best-of-``rounds`` wall time of ``a`` and of ``b``, alternating
    the two: a slow spell of a shared host then hits both sides, and the
    best repetition is what repeats from run to run (perfbench takes each
    op's best repetition for the same reason)."""
    best_a = best_b = float("inf")
    for _ in range(rounds):
        best_a = min(best_a, _best(a, rounds=1))
        best_b = min(best_b, _best(b, rounds=1))
    return best_a, best_b


def _higher_order_program():
    """twice (twice (compose inc dbl)) 1 -- closures all the way down."""
    inc = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
    dbl = Lam((("x", FInt()),), BinOp("*", Var("x"), IntE(2)))
    step = compose(inc, dbl, FInt(), FInt(), FInt())
    return App(twice(twice(step, FInt()), FInt()), (IntE(1),))


def _run(program, tal_engine=None):
    machine = FTMachine(budget=Budget(fuel=RUN_FUEL), tal_engine=tal_engine)
    value = machine.evaluate(program)
    return value, machine.budget.fuel_used


def _gap_history(current: float, keep: int = 20):
    """The compiled-vs-interpreted wall-clock gap across benchmark runs
    (fast tier), previous artifact's history plus this run, newest last
    -- the ``speedup_history`` idiom from ``bench_serve.py``: the
    trajectory toward closing the gap lives in the archived JSON."""
    history = []
    if _BENCH_PATH.exists():
        try:
            prev = json.loads(_BENCH_PATH.read_text(encoding="utf-8"))
            history = list(prev.get("compiled_vs_interpreted", {})
                           .get("fact_f", {}).get("gap_history", []))
        except (ValueError, OSError):
            history = []
    history.append(round(current, 1))
    return history[-keep:]


def test_compile_time(record):
    cases = {
        "fact_f": build_fact_f(),
        "higher_order": _higher_order_program(),
    }
    rows = {}
    for name, term in cases.items():
        def cold(t=term):
            clear_compile_cache()
            compile_term(t)

        cold_s = _best(cold)
        result = compile_term(term)       # leaves the cache warm
        warm_s = _best(lambda t=term: compile_term(t))
        rows[name] = {
            "blocks": result.block_count(),
            "cold_s": round(cold_s, 6),
            "warm_s": round(warm_s, 6),
            "defs": 0 if result.clos is None else len(result.clos.defs),
        }
        record(f"{name}: cold {cold_s * 1e3:.2f}ms, "
               f"warm {warm_s * 1e6:.1f}us, {rows[name]['blocks']} blocks")
        # memoization must be orders of magnitude below a real compile
        assert warm_s < cold_s
    _RESULTS["compile_time"] = rows


def test_compiled_vs_interpreted(record):
    from repro.tal import fast

    cases = {
        "fact_f": App(build_fact_f(), (IntE(FACT_N),)),
        "higher_order": _higher_order_program(),
    }
    rows = {}
    for name, program in cases.items():
        compiled = compile_term(program).wrapped
        int_value, int_fuel = _run(program)
        cmp_value, cmp_fuel = _run(compiled, tal_engine="ref")
        assert cmp_value == int_value, name
        fast.clear_fast_caches()
        fast_value, fast_fuel = _run(compiled, tal_engine="fast")
        assert fast_value == int_value, name
        assert fast_fuel == cmp_fuel, name    # lockstep, not just close
        int_s = _best(lambda p=program: _run(p))
        cmp_s = _best(lambda p=compiled: _run(p, tal_engine="ref"))
        fast_s = _best(lambda p=compiled: _run(p, tal_engine="fast"))
        rows[name] = {
            "value": str(int_value),
            "interpreted_s": round(int_s, 6),
            "compiled_s": round(cmp_s, 6),
            "compiled_fast_s": round(fast_s, 6),
            "fast_vs_ref": round(cmp_s / fast_s, 2) if fast_s else None,
            "interpreted_fuel": int_fuel,
            "compiled_fuel": cmp_fuel,
            "fuel_overhead": round(cmp_fuel / max(int_fuel, 1), 1),
        }
        record(f"{name}: interpreted {int_s * 1e3:.2f}ms/{int_fuel} fuel, "
               f"compiled(ref) {cmp_s * 1e3:.2f}ms/{cmp_fuel} fuel, "
               f"compiled(fast) {fast_s * 1e3:.2f}ms")
        if name == "fact_f":
            gap = fast_s / int_s if int_s else float("inf")
            rows[name]["gap"] = round(gap, 1)
            rows[name]["gap_history"] = _gap_history(gap)
            record(f"fact_f compiled-vs-interpreted gap (fast tier): "
                   f"{gap:.0f}x; history {rows[name]['gap_history']}")
    _RESULTS["compiled_vs_interpreted"] = rows

    # The residual fact_f gap is a first-class known regression until
    # closed.  Compiled fact_f now crosses the F/T boundary 3 times for
    # any n (it crossed 2^(n+3) - 2 times while closures materialized
    # through imports).  The gate is 3x the worst of 12 fresh runs on a
    # 2-CPU host with CPython 3.11 (8.0-8.9x; the previous gate was
    # 240x, a 10x shrink of the seed gap).  What is left is not the
    # boundary, and no longer the load either (a component is relocated
    # once and its block table reused by every run): the compiled code
    # takes ~13x the source's fuel, and each T call that the fast tier
    # has not specialized yet instantiates its callee at the concrete
    # caller stack.
    gap = rows["fact_f"]["gap"]
    _RESULTS.setdefault("known_regressions", []).append({
        "name": "fact_f_boundary_gap",
        "metric": "compiled_vs_interpreted.fact_f.gap",
        "value": gap,
        "threshold": FACT_F_GAP_GATE,
        "asserted": True,
        "first_observed": 2400.0,
        "cause": "~13x the source's fuel, and per-call instantiation "
                 "of the callee at the caller's concrete stack type; "
                 "boundary crossings are constant (3) since typed "
                 "closure conversion, and loads reuse one relocated "
                 "image per component",
    })
    assert gap <= FACT_F_GAP_GATE, (
        f"compiled fact_f is {gap:.0f}x the interpreted source "
        f"(gate: {FACT_F_GAP_GATE:.0f}x)")


def test_fast_tier_gate(record):
    """The fast-tier CI gate: on a T-dominated hot loop the fast engine
    must beat the reference TalMachine >=10x wall-clock, and on the
    compiled factorial it must not lose to it."""
    from repro.tal import fast

    fast.clear_fast_caches()
    loop = App(build_count_t(), (IntE(30_000),))

    def run_loop(engine):
        machine = FTMachine(budget=Budget(fuel=RUN_FUEL), tal_engine=engine)
        return machine.evaluate(loop), machine.budget.fuel_used

    (ref_value, ref_fuel) = run_loop("ref")
    (fast_value, fast_fuel) = run_loop("fast")   # also warms the JIT
    assert str(fast_value) == str(ref_value) == "30000"
    assert fast_fuel == ref_fuel
    ref_s, fast_s = _best_pair(lambda: run_loop("ref"),
                               lambda: run_loop("fast"), rounds=2 * ROUNDS)
    speedup = ref_s / fast_s if fast_s else float("inf")

    compiled = compile_term(App(build_fact_f(), (IntE(FACT_N),))).wrapped
    _run(compiled, tal_engine="fast")            # warm the block tables
    fact_ref_s, fact_fast_s = _best_pair(
        lambda: _run(compiled, tal_engine="ref"),
        lambda: _run(compiled, tal_engine="fast"),
        rounds=4 * ROUNDS)
    fact_ratio = fact_ref_s / fact_fast_s if fact_fast_s else float("inf")

    stats = fast.fast_cache_stats()
    _RESULTS["fast_tier"] = {
        "hot_loop_ref_s": round(ref_s, 6),
        "hot_loop_fast_s": round(fast_s, 6),
        "hot_loop_speedup": round(speedup, 2),
        "fact_f_ref_s": round(fact_ref_s, 6),
        "fact_f_fast_s": round(fact_fast_s, 6),
        "fact_f_fast_vs_ref": round(fact_ratio, 2),
        "block_cache": stats["tal.fast.block"],
    }
    record(f"fast tier: hot loop ref {ref_s * 1e3:.1f}ms vs fast "
           f"{fast_s * 1e3:.1f}ms = {speedup:.1f}x; compiled fact_f "
           f"ref/fast = {fact_ratio:.2f}x")
    # The perf gate proper: fast must not be slower than ref anywhere,
    # and on T-dominated code it must clear the 10x bar.
    assert speedup >= 10.0, (
        f"fast tier only {speedup:.1f}x on the hot loop (need >=10x)")
    # Compiled fact_f runs in T; gate on "not slower" with a noise
    # allowance (shared CI hosts swing +-20%) and record the exact ratio
    # in the artifact.
    assert fact_ratio >= 0.8, (
        f"fast tier is {fact_ratio:.2f}x ref on compiled fact_f "
        f"(slower beyond noise)")


def test_paper_examples_gate(record):
    """Every closed pure-F paper example compiles and validates."""
    rows = {}
    gated = []
    for name, (_, build) in sorted(example_entries().items()):
        term = build()
        if isinstance(term, Component) or not is_general_compilable(term):
            continue
        gated.append(name)
        start = time.perf_counter()
        result = compile_term(term)
        compile_s = time.perf_counter() - start
        ty, _ = check_ft_expr(result.wrapped)
        assert ty == result.ty, name
        start = time.perf_counter()
        report = validate_compilation(result, quarantine=Quarantine())
        validate_s = time.perf_counter() - start
        assert report.ok, (name, report.failure)
        rows[name] = {
            "blocks": result.block_count(),
            "compile_s": round(compile_s, 6),
            "validate_s": round(validate_s, 6),
            "trials": report.trials,
        }
        record(f"{name}: {result.block_count()} blocks, validated in "
               f"{validate_s:.2f}s")
    # the gate is only meaningful if it actually covers the examples
    assert "fact-f" in gated and "jit-source" in gated
    _RESULTS["paper_examples"] = rows
