"""Tests for the crash-isolated worker pool.

The headline scenarios (ISSUE acceptance): a worker killed mid-job is
reaped and respawned, the job is retried, and the pool keeps serving; a
hung job hits its wall-clock deadline without taking the pool down.
"""

import time

import pytest

from repro.resilience.chaos import Fault
from repro.serve.cache import ResultCache
from repro.serve.pool import PoolClosed, QueueFull, WorkerPool
from repro.serve.protocol import Job, JobOptions


@pytest.fixture(scope="module")
def pool():
    """One shared 2-worker pool; fault tests verify it survives faults,
    so sharing is not just economy but part of the point."""
    with WorkerPool(2, max_retries=2, default_timeout=20.0,
                    retry_backoff=0.01) as p:
        yield p


def run_job(source, fault=None, **opts):
    return Job("run", source=source, options=JobOptions(**opts),
               fault=fault)


class TestBasics:
    def test_single_job(self, pool):
        result = pool.submit(run_job("(2 + 3)")).wait(30.0)
        assert result is not None and result.ok
        assert result.output["value"] == "5"
        assert result.attempts == 1

    def test_batch_preserves_order(self, pool):
        jobs = [Job("run", id=f"j{i}", source=f"({i} + 0)")
                for i in range(24)]
        results = pool.run_batch(jobs, timeout=60.0)
        assert [r.id for r in results] == [f"j{i}" for i in range(24)]
        assert all(r.ok for r in results)
        assert [r.output["value"] for r in results] == \
            [str(i) for i in range(24)]

    def test_program_error_is_a_result_not_a_fault(self, pool):
        result = pool.submit(Job("typecheck", source="(1 + ())")).wait(30.0)
        assert result.status == "error"
        assert result.attempts == 1        # no retries for semantic errors

    def test_fuel_exhaustion_travels_through_the_pool(self, pool):
        spin = "(jmp spin, {spin -> code[]{.; nil} end{int; nil}. jmp spin})"
        result = pool.submit(run_job(spin, fuel=500)).wait(30.0)
        assert result.status == "fuel_exhausted"
        assert result.output["fuel"] == 500

    def test_stats_shape(self, pool):
        stats = pool.stats()
        assert stats["workers"] == 2
        assert stats["cache"] is None


class TestFaultIsolation:
    def test_crash_is_retried_then_reported_and_pool_survives(self, pool):
        # The injected crash os._exit()s the worker on every attempt:
        # initial + max_retries dispatches, then a terminal report.
        result = pool.submit(run_job("(1 + 1)", Fault("crash"))).wait(60.0)
        assert result is not None
        assert result.status == "crashed"
        assert result.attempts == 3        # 1 + max_retries
        assert "retry budget" in result.error
        # the pool respawned its workers and keeps serving
        after = pool.submit(run_job("(40 + 2)")).wait(30.0)
        assert after is not None and after.ok
        assert after.output["value"] == "42"
        assert pool.stats()["workers"] == 2

    def test_crash_mid_batch_blames_only_the_culprit(self, pool):
        jobs = [Job("run", id=f"g{i}", source=f"({i} * 2)")
                for i in range(10)]
        jobs.insert(5, Job("run", id="boom", source="(0 + 0)",
                           fault=Fault("crash")))
        results = {r.id: r for r in pool.run_batch(jobs, timeout=90.0)}
        assert results["boom"].status == "crashed"
        for i in range(10):
            assert results[f"g{i}"].ok, results[f"g{i}"]
            # chunk-mates requeued after a crash never burn retry budget
            assert results[f"g{i}"].attempts == 1

    def test_hang_hits_the_deadline(self, pool):
        result = pool.submit(run_job("(1 + 1)",
                                     Fault("stall", seconds=30.0),
                                     timeout=0.3)).wait(90.0)
        assert result is not None
        assert result.status == "timeout"
        assert result.attempts == 3
        assert "wall-clock" in result.error
        after = pool.submit(run_job("(2 + 2)")).wait(30.0)
        assert after is not None and after.ok

    def test_seam_fault_is_armed_for_one_job_only(self, pool, tmp_path):
        # A FaultPlane on store.io inside the worker: the link job
        # degrades to a store-less build instead of failing.
        manifest = ('{"components": {"double": "lam (x: int). (x + x)"}, '
                    '"main": "double 21"}')

        def link(fault=None):
            return Job("link", source=manifest,
                       options=JobOptions(store=str(tmp_path)),
                       fault=fault)

        faulty = pool.submit(
            link(Fault("store.io", rate=1.0))).wait(60.0)
        assert faulty.ok, faulty
        assert faulty.output["degraded"] is True
        assert faulty.output["value"] == "42"
        clean = pool.submit(link()).wait(60.0)
        assert clean.ok, clean
        assert "degraded" not in clean.output
        assert clean.output["value"] == "42"


class TestCacheIntegration:
    def test_second_submission_is_served_cached(self):
        cache = ResultCache(64)
        with WorkerPool(1, cache=cache) as pool:
            first = pool.submit(run_job("(6 * 7)")).wait(30.0)
            assert first.ok and not first.cached
            ticket = pool.submit(run_job("(6 * 7)"))
            assert ticket.done                 # resolved synchronously
            hit = ticket.result
            assert hit.cached and hit.output == first.output

    def test_resubmitted_batch_is_mostly_cache_served(self):
        cache = ResultCache(256)
        jobs = [Job("run", id=f"c{i}", source=f"({i} + 1)")
                for i in range(20)]
        with WorkerPool(2, cache=cache) as pool:
            cold = pool.run_batch(jobs, timeout=60.0)
            assert all(r.ok for r in cold)
            warm = pool.run_batch(jobs, timeout=60.0)
            served = sum(1 for r in warm if r.cached)
            # ISSUE acceptance: >= 90% of a resubmitted batch from cache.
            assert served >= 0.9 * len(jobs)

    def test_failures_are_never_cached(self):
        cache = ResultCache(64)
        with WorkerPool(1, cache=cache, max_retries=0,
                        retry_backoff=0.01) as pool:
            bad = pool.submit(run_job("(9 + 9)", Fault("crash"),
                                      no_cache=False)).wait(60.0)
            assert bad.status == "crashed"
            again = pool.submit(run_job("(9 + 9)")).wait(30.0)
            assert again.ok and not again.cached

    def test_store_job_bypasses_the_cache(self, tmp_path):
        # ``store`` stays out of the cache key, so a cached store-less
        # compile would answer a store job without persisting anything.
        store = tmp_path / "store"
        source = "lam (x: int). (x * 3)"
        cache = ResultCache(64)
        with WorkerPool(1, cache=cache) as pool:
            first = pool.submit(Job("compile", source=source)).wait(60.0)
            assert first.ok and "stored" not in first.output
            stored = pool.submit(Job(
                "compile", source=source,
                options=JobOptions(store=str(store)))).wait(60.0)
            assert stored.ok and not stored.cached
            assert stored.output["stored"]["store"] == str(store)
            assert any(p.is_file() for p in store.rglob("*"))
            assert len(cache) == 1         # the store job was not kept


class TestBackpressureAndLifecycle:
    def test_queue_full_raises_when_nonblocking(self):
        # One worker stuck sleeping; a tiny queue behind it fills up.
        with WorkerPool(1, queue_size=2, default_timeout=20.0) as pool:
            blocker = pool.submit(
                run_job("(0 + 0)", Fault("stall", seconds=1.0)))
            deadline = time.monotonic() + 5.0
            while pool.stats()["queued"] and time.monotonic() < deadline:
                time.sleep(0.01)           # let the worker pick it up
            queued = [pool.submit(run_job(f"({i} + 0)"), block=False)
                      for i in range(2)]
            with pytest.raises(QueueFull):
                pool.submit(run_job("(99 + 0)"), block=False)
            assert blocker.wait(30.0) is not None
            for t in queued:
                assert t.wait(30.0) is not None

    def test_submit_after_close_raises(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(PoolClosed):
            pool.submit(run_job("(1 + 1)"))

    def test_close_drains_inflight_jobs(self):
        pool = WorkerPool(1)
        tickets = [pool.submit(run_job(f"({i} + 2)")) for i in range(6)]
        pool.close()                       # drain=True by default
        assert all(t.done for t in tickets)
        assert all(t.result.ok for t in tickets)

    def test_ticket_callback_fires(self, pool):
        seen = []
        ticket = pool.submit(run_job("(5 + 5)"))
        ticket.add_done_callback(seen.append)
        result = ticket.wait(30.0)
        assert seen == [result]
        # late registration fires immediately
        late = []
        ticket.add_done_callback(late.append)
        assert late == [result]
