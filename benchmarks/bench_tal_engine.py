"""T-engine benchmark: the default T engine against the reference one.

Writes ``BENCH_tal_engine.json`` at the repository root.  One mixed
hot/cold corpus (T-dominated countdown loops plus trivial arithmetic)
runs twice through the same worker pool configuration: (a) with
``tal_engine="ref"`` and (b) with no engine chosen, so jobs run on the
default engine (``fast``).  Every job must return the same value in both
phases, every hot job in phase B must report the default engine in
``tier.tal_engine``, and the gate asserts phase B is **>= 2x** faster.
The ratio is per-job work reduction, so it holds regardless of host
core count.
"""

import json
import os
import pathlib
import platform
import time

import pytest

from repro.f.syntax import App, IntE
from repro.papers_examples.fig17_factorial import build_count_t
from repro.serve.pool import WorkerPool
from repro.serve.protocol import Job, JobOptions
from repro.tal.machine import DEFAULT_TAL_ENGINE

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_BENCH_PATH = _REPO_ROOT / "BENCH_tal_engine.json"

_RESULTS = {}

WORKERS = 4
HOT_NS = (30_000, 30_001)       # two distinct hot programs
HOT_REPEATS = 4
COLD_SOURCES = tuple(f"(({i} + {i + 1}) * {i + 2})" for i in range(8))


def hot_source(n: int) -> str:
    """A T-dominated countdown loop (countT n == n): ~3 T steps per
    iteration, so one run is tens of thousands of T steps."""
    return str(App(build_count_t(), (IntE(n),)))


def corpus_jobs(tal_engine):
    options = JobOptions(no_cache=True, tal_engine=tal_engine)
    jobs = [Job("run", id=f"hot-{n}#{rep}", source=hot_source(n),
                options=options)
            for rep in range(HOT_REPEATS) for n in HOT_NS]
    jobs += [Job("run", id=f"cold-{i}", source=src, options=options)
             for i, src in enumerate(COLD_SOURCES)]
    return jobs


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    yield
    if _RESULTS:
        _BENCH_PATH.write_text(
            json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")


def _timed_batch(tal_engine):
    """(results, seconds) for the corpus on a fresh, warmed-up pool."""
    jobs = corpus_jobs(tal_engine)
    with WorkerPool(WORKERS, cache=None, default_timeout=120.0) as pool:
        pool.submit(Job("run", source=hot_source(50),
                        options=JobOptions(no_cache=True,
                                           tal_engine=tal_engine))
                    ).wait(60.0)
        start = time.perf_counter()
        results = pool.run_batch(jobs, timeout=600.0)
        elapsed = time.perf_counter() - start
    assert all(r.ok for r in results), [r.error for r in results
                                        if not r.ok]
    return results, elapsed


def test_default_engine_throughput_vs_ref(record):
    ref, ref_s = _timed_batch("ref")
    fast, fast_s = _timed_batch(None)

    # Zero wrong answers: the default corpus reproduces the ref one.
    ref_values = {r.id: r.output["value"] for r in ref}
    assert len(fast) == len(ref_values)
    for r in fast:
        assert r.output["value"] == ref_values[r.id], r.id
    # Every hot job was actually served on the default T engine.
    assert DEFAULT_TAL_ENGINE == "fast"
    hot_tiers = [r.output["tier"] for r in fast if r.id.startswith("hot-")]
    assert hot_tiers and all(t["tal_engine"] == DEFAULT_TAL_ENGINE
                             for t in hot_tiers)

    speedup = ref_s / fast_s if fast_s else float("inf")
    _RESULTS["throughput"] = {
        "jobs": len(fast),
        "hot_jobs": len(hot_tiers),
        "workers": WORKERS,
        "ref_s": round(ref_s, 4),
        "fast_s": round(fast_s, 4),
        "jobs_per_s_ref": round(len(ref) / ref_s, 1),
        "jobs_per_s_fast": round(len(fast) / fast_s, 1),
        "speedup": round(speedup, 3),
    }
    _RESULTS["host"] = {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    record(f"tal_engine: {len(fast)}-job mixed corpus ref={ref_s:.3f}s "
           f"default={fast_s:.3f}s speedup={speedup:.2f}x")
    assert speedup >= 2.0, (
        f"default T engine only {speedup:.2f}x the ref engine on this "
        f"corpus (gate: >= 2x)")
