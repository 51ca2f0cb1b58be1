"""Tests for the serve fleet's supervision layer.

Unit level: :class:`CircuitBreaker`, :class:`RestartTracker`,
the pool's :class:`~repro.caching.Quarantine`, and :func:`job_fault_key`
in isolation.

Integration level (each against a live pool): heartbeat-based hung
worker detection, deadline shedding before dispatch, shed-oldest
backpressure with ``retry_after_ms`` hints, breaker-driven degradation,
mid-run checkpoint recovery onto a sibling worker, and the property
that a kill/hang storm never loses a job.
"""

import time

import pytest

from repro.caching import Quarantine
from repro.resilience.chaos import Fault
from repro.serve.pool import QueueFull, WorkerPool
from repro.serve.protocol import Job, JobOptions
from repro.serve.supervisor import (
    CircuitBreaker, RestartTracker, SupervisorConfig, job_fault_key,
)


def run_job(source, fault=None, **opts):
    return Job("run", source=source, options=JobOptions(**opts),
               fault=fault)


# -- unit: supervision policy objects -----------------------------------


class TestCircuitBreaker:
    def test_disabled_by_default_threshold_zero(self):
        br = CircuitBreaker(0, 30.0, 5.0)
        assert not br.enabled
        for _ in range(100):
            br.record_fatal("run")
        assert not br.is_open("run")

    def test_opens_at_threshold_and_cools_down(self):
        br = CircuitBreaker(3, 30.0, 0.05)
        assert not br.record_fatal("run")
        assert not br.record_fatal("run")
        assert br.record_fatal("run")       # third strike opens it
        assert br.is_open("run")
        assert br.retry_after_ms("run") > 0
        assert not br.is_open("jit")        # per-kind isolation
        time.sleep(0.08)
        assert not br.is_open("run")        # cooldown expired

    def test_success_clears_the_strike_history(self):
        br = CircuitBreaker(3, 30.0, 5.0)
        br.record_fatal("run")
        br.record_fatal("run")
        br.record_ok("run")
        assert not br.record_fatal("run")   # history was wiped
        assert not br.is_open("run")

    def test_old_strikes_age_out_of_the_window(self):
        br = CircuitBreaker(2, 0.05, 5.0)
        br.record_fatal("run")
        time.sleep(0.08)
        assert not br.record_fatal("run")   # first strike expired

    def test_snapshot_shape(self):
        br = CircuitBreaker(2, 30.0, 5.0)
        br.record_fatal("run")
        br.record_fatal("run")
        snap = br.snapshot()
        assert snap["enabled"] and snap["threshold"] == 2
        assert snap["opened_total"] == 1
        assert "run" in snap["open"]


class TestRestartTracker:
    def test_within_budget_is_free(self):
        tr = RestartTracker(3, 30.0, 0.5, 10.0, seed=7)
        assert tr.delay(1) == 0.0
        assert tr.delay(1) == 0.0
        assert tr.delay(1) == 0.0

    def test_over_budget_backs_off_exponentially(self):
        tr = RestartTracker(2, 30.0, 0.5, 10.0, seed=7)
        tr.delay(1), tr.delay(1)
        d1 = tr.delay(1)
        d2 = tr.delay(1)
        assert 0.5 <= d1 <= 1.0            # backoff + jitter
        assert d2 > d1 / 2                 # grows (modulo jitter)
        assert d2 <= 10.0 + 0.5

    def test_budget_is_per_slot(self):
        tr = RestartTracker(1, 30.0, 0.5, 10.0, seed=7)
        assert tr.delay(1) == 0.0
        assert tr.delay(2) == 0.0          # other slot unaffected
        assert tr.delay(1) > 0.0

    def test_deaths_age_out_of_the_window(self):
        tr = RestartTracker(1, 0.05, 0.5, 10.0, seed=7)
        assert tr.delay(1) == 0.0
        time.sleep(0.08)
        assert tr.delay(1) == 0.0          # window rolled over


class TestQuarantineAndFaultKey:
    def test_fault_key_ignores_id_but_not_faults(self):
        a = run_job("(1 + 1)")
        b = run_job("(1 + 1)")
        b.id = "something-else"
        assert job_fault_key(a) == job_fault_key(b)
        c = run_job("(1 + 1)", Fault("crash"))
        assert job_fault_key(a) != job_fault_key(c)
        d = run_job("(1 + 1)", Fault("stall", seconds=1.0))
        assert job_fault_key(c) != job_fault_key(d)

    def test_quarantine_round_trip(self):
        q = Quarantine(metric_prefix="serve.quarantine")
        key = job_fault_key(run_job("(1 + 1)", Fault("crash")))
        q.add(key, "crashed")
        q.add(key, "crashed again")        # first reason wins
        assert key in q and len(q) == 1
        assert q.reason(key) == "crashed"
        clean = job_fault_key(run_job("(1 + 1)"))
        assert clean not in q              # the fault distinguishes
        assert q.stats()["size"] == 1
        q.clear()
        assert key not in q

    def test_concurrent_use_loses_no_hits(self):
        """The pool adds from its manager thread while submitters look
        up, skip and read stats; no update may be lost."""
        import sys
        import threading

        q = Quarantine(metric_prefix="serve.quarantine")
        errors = []

        def hammer(n):
            try:
                for i in range(2000):
                    q.add(f"{n}-{i % 50}", "crashed")
                    q.skip("k")
                    if i % 50 == 0:
                        q.stats()
            except Exception as err:    # surfaced by the assert below
                errors.append(err)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,))
                       for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert errors == []
        assert q.hits == 8 * 2000
        assert len(q) == 8 * 50


class TestConfigValidation:
    def test_bad_shed_policy_rejected(self):
        with pytest.raises(ValueError):
            SupervisorConfig(shed_policy="drop-newest")


# -- integration: a live pool under supervision -------------------------


class TestHeartbeat:
    def test_hung_worker_detected_before_job_deadline(self):
        """SIGSTOP freezes the worker; the heartbeat notices in
        ~misses*interval even though the job deadline is far away."""
        cfg = SupervisorConfig(heartbeat_interval=0.1, heartbeat_misses=3)
        with WorkerPool(1, max_retries=0, default_timeout=60.0,
                        supervisor=cfg) as pool:
            t0 = time.monotonic()
            result = pool.submit(
                run_job("(1 + 1)", Fault("hang"))).wait(30.0)
            elapsed = time.monotonic() - t0
            assert result is not None
            assert result.status == "timeout"
            assert elapsed < 20.0          # far below the 60s deadline
            # the pool respawned and still serves
            ok = pool.submit(run_job("(2 + 2)")).wait(30.0)
            assert ok.ok and ok.output["value"] == "4"


class TestDeadlines:
    def test_expired_deadline_is_shed_not_run(self):
        with WorkerPool(1, max_retries=0, default_timeout=30.0,
                        retry_backoff=0.01) as pool:
            # occupy the only worker long enough for the deadline to
            # pass; give the manager a beat to dispatch it alone, so
            # the doomed job queues instead of riding the same chunk
            slow = pool.submit(
                run_job("(1 + 1)", Fault("stall", seconds=0.6)))
            time.sleep(0.25)
            doomed = pool.submit(run_job("(2 + 2)", deadline_ms=100))
            result = doomed.wait(30.0)
            assert result.status == "timeout"
            assert result.error_type == "DeadlineExpired"
            assert result.output.get("shed") is True
            assert slow.wait(30.0).ok

    def test_generous_deadline_runs_normally(self):
        with WorkerPool(1, default_timeout=30.0) as pool:
            result = pool.submit(
                run_job("(3 + 4)", deadline_ms=30_000)).wait(30.0)
            assert result.ok and result.output["value"] == "7"


class TestShedPolicies:
    def test_reject_policy_raises_queue_full_with_hint(self):
        with WorkerPool(1, queue_size=1, default_timeout=30.0) as pool:
            pool.submit(run_job("(1 + 1)", Fault("stall", seconds=0.5)))
            with pytest.raises(QueueFull) as exc:
                for i in range(20):
                    pool.submit(run_job(f"({i} + 0)"), block=False)
            assert exc.value.retry_after_ms > 0

    def test_shed_oldest_resolves_victims_as_overloaded(self):
        with WorkerPool(1, queue_size=2, default_timeout=30.0,
                        supervisor=SupervisorConfig(
                            shed_policy="shed-oldest")) as pool:
            blocker = pool.submit(
                run_job("(1 + 1)", Fault("stall", seconds=0.5)))
            time.sleep(0.25)      # let it dispatch: inflight jobs are
            tickets = [pool.submit(run_job(f"({i} + 0)"), block=False)
                       for i in range(8)]   # never shed, queued ones are
            results = [t.wait(30.0) for t in tickets]
            assert all(r is not None for r in results)
            over = [r for r in results if r.status == "overloaded"]
            assert over, "expected at least one shed victim"
            for r in over:
                assert r.error_type == "QueueFull"
                assert r.output["retry_after_ms"] > 0
            assert blocker.wait(30.0).ok


class TestBreaker:
    def test_breaker_opens_and_refuses_the_kind(self):
        cfg = SupervisorConfig(breaker_threshold=2, breaker_window=30.0,
                               breaker_cooldown=60.0)
        with WorkerPool(1, max_retries=0, retry_backoff=0.01,
                        default_timeout=30.0, supervisor=cfg) as pool:
            for i in range(2):
                r = pool.submit(Job(
                    "run", id=f"boom{i}", source=f"({i} + 0)",
                    fault=Fault("crash"))).wait(30.0)
                assert r.status == "crashed"
            refused = pool.submit(run_job("(5 + 5)")).wait(30.0)
            assert refused.status == "overloaded"
            assert refused.error_type == "BreakerOpen"
            assert refused.output["retry_after_ms"] > 0
            # other kinds still pass through the open run-breaker
            other = pool.submit(
                Job("typecheck", source="(1 + 1)")).wait(30.0)
            assert other.ok


class TestQuarantineIntegration:
    def test_fatal_digest_is_quarantined_but_clean_twin_passes(self):
        with WorkerPool(1, max_retries=0, retry_backoff=0.01,
                        default_timeout=30.0) as pool:
            bad = Job("run", id="q1", source="(9 + 9)",
                      fault=Fault("crash"))
            assert pool.submit(bad).wait(30.0).status == "crashed"
            again = Job("run", id="q2", source="(9 + 9)",
                        fault=Fault("crash"))
            r = pool.submit(again).wait(30.0)
            assert r.status == "rejected"
            assert r.error_type == "QuarantinedJob"
            # same source without the fault is a different digest
            clean = pool.submit(run_job("(9 + 9)")).wait(30.0)
            assert clean.ok and clean.output["value"] == "18"
            quarantine = pool.stats()["supervisor"]["quarantine"]
            assert quarantine["size"] == 1 and quarantine["hits"] == 1


class TestCheckpointRecovery:
    def test_killed_job_resumes_on_a_sibling_from_its_snapshot(self):
        with WorkerPool(2, max_retries=2, retry_backoff=0.01,
                        default_timeout=30.0) as pool:
            job = Job("run", example="fact-f",
                      options=JobOptions(checkpoint=True,
                                         checkpoint_every=8),
                      fault=Fault("crash-after-checkpoint"))
            result = pool.submit(job).wait(60.0)
            assert result is not None and result.ok
            assert result.kind == "run"     # resume rewrite normalized
            assert result.output["value"] == "720"
            assert result.output["recovered"] is True
            assert "recovered_from_worker" in result.output

    def test_recovery_counts_in_stats(self):
        with WorkerPool(2, max_retries=2, retry_backoff=0.01,
                        default_timeout=30.0) as pool:
            job = Job("run", example="fact-f",
                      options=JobOptions(checkpoint=True,
                                         checkpoint_every=8),
                      fault=Fault("crash-after-checkpoint"))
            assert pool.submit(job).wait(60.0).ok
            mttr = pool.stats()["supervisor"]["mttr_ms"]
            assert mttr["count"] >= 1
            assert mttr["mean"] >= 0.0


class TestStorm:
    """Property: under a kill/hang storm every ticket resolves to a
    terminal result -- nothing hangs forever, nothing vanishes."""

    def test_every_ticket_resolves_terminal(self):
        import random
        rng = random.Random(42)
        cfg = SupervisorConfig(heartbeat_interval=0.1, heartbeat_misses=3,
                               restart_backoff=0.02,
                               restart_backoff_max=0.2)
        terminal = {"ok", "error", "crashed", "timeout", "overloaded",
                    "rejected", "suspended", "fuel_exhausted",
                    "resource_exhausted"}
        hangs = 0
        with WorkerPool(2, max_retries=1, retry_backoff=0.01,
                        default_timeout=2.0, supervisor=cfg) as pool:
            jobs = []
            for i in range(40):
                fault = None
                roll = rng.random()
                if roll < 0.2:
                    fault = Fault("crash")
                elif roll < 0.3 and hangs < 2:
                    fault = Fault("hang")
                    hangs += 1
                elif roll < 0.4:
                    fault = Fault("corrupt")
                jobs.append(Job("run", id=f"storm{i}",
                                source=f"({i} + 1)", fault=fault))
            tickets = [pool.submit(j) for j in jobs]
            for ticket in tickets:
                result = ticket.wait(60.0)
                assert result is not None, \
                    f"job {ticket.job.id} never resolved"
                assert result.status in terminal
            # and the pool is still alive afterwards
            assert pool.submit(run_job("(10 + 10)")).wait(30.0).ok
