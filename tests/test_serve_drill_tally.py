"""The serve drill's summary counts every job an overloaded pool turned
away, by cause: a deadline that expired in the queue, a shed-oldest
eviction, and an open circuit breaker.  Checked on synthetic results;
no pool is started."""

from repro.serve.drill import SHED_CAUSES, shed_tally
from repro.serve.protocol import Job, JobResult


def result(status, error_type="", output=None):
    job = Job("run", source="(1 + 2)")
    if status == "ok":
        return JobResult(id=job.id, kind=job.kind, status="ok",
                         output=output or {})
    return JobResult.failure(job, status, "turned away",
                             error_type=error_type, output=output)


class TestShedTally:
    def test_each_cause_counted_separately(self):
        results = (
            [result("timeout", "DeadlineExpired", {"shed": True})] * 2
            + [result("overloaded", "QueueFull")] * 5
            + [result("overloaded", "BreakerOpen")] * 3
            + [result("ok"), result("crashed", "crashed"),
               result("timeout", "Timeout")])
        assert shed_tally(results) == {
            "deadline": 2, "queue_full": 5, "breaker_open": 3}

    def test_every_cause_reported_when_nothing_was_shed(self):
        assert shed_tally([result("ok")]) == dict.fromkeys(
            SHED_CAUSES.values(), 0)
