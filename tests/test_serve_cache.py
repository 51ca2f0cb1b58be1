"""Tests for the serving layer's LRU and content-addressed result cache."""

from repro.caching import LRUCache
from repro.serve.cache import ResultCache, job_cache_key
from repro.serve.protocol import Job, JobOptions, JobResult


class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_evicts_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")            # refresh a; b becomes the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)        # rewrite refreshes too
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_clear_and_stats(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["size"] == 0 and stats["maxsize"] == 4

    def test_mirrors_counters_when_obs_enabled(self):
        from repro import obs

        cache = LRUCache(4, metric_prefix="test.lru")
        obs.enable(record=False)
        try:
            cache.get("nope")
            cache.put("a", 1)
            cache.get("a")
            snapshot = obs.OBS.metrics.snapshot()
        finally:
            obs.disable()
            obs.reset()
        assert snapshot["counters"]["test.lru.miss"] == 1
        assert snapshot["counters"]["test.lru.hit"] == 1


class TestJobCacheKey:
    def test_id_is_not_part_of_the_address(self):
        a = Job("run", id="first", source="(1 + 1)")
        b = Job("run", id="second", source="(1 + 1)")
        assert job_cache_key(a) == job_cache_key(b)

    def test_operational_options_are_not_part_of_the_address(self):
        a = Job("run", source="(1 + 1)", options=JobOptions(timeout=1.0))
        b = Job("run", source="(1 + 1)", options=JobOptions(timeout=9.0))
        assert job_cache_key(a) == job_cache_key(b)

    def test_semantic_options_are(self):
        a = Job("run", source="(1 + 1)", options=JobOptions(fuel=10))
        b = Job("run", source="(1 + 1)", options=JobOptions(fuel=20))
        assert job_cache_key(a) != job_cache_key(b)

    def test_kind_and_source_are(self):
        run = Job("run", source="(1 + 1)")
        parse = Job("parse", source="(1 + 1)")
        other = Job("run", source="(1 + 2)")
        assert len({job_cache_key(j) for j in (run, parse, other)}) == 3


class TestResultCache:
    def _ok(self, job, value="2"):
        return JobResult(id=job.id, kind=job.kind, status="ok",
                         output={"value": value}, duration_ms=1.5)

    def test_hit_is_a_flagged_copy_with_the_callers_id(self):
        cache = ResultCache()
        job = Job("run", id="orig", source="(1 + 1)")
        cache.put(job, self._ok(job))
        again = Job("run", id="resubmit", source="(1 + 1)")
        hit = cache.get(again)
        assert hit is not None
        assert hit.cached and hit.id == "resubmit" and hit.attempts == 0
        assert hit.output == {"value": "2"}
        # the stored record is untouched
        assert cache.get(job).id == "orig"

    def test_only_ok_results_are_stored(self):
        cache = ResultCache()
        job = Job("run", id="j", source="(1 / 0)")
        cache.put(job, JobResult.failure(job, "error", "boom"))
        cache.put(job, JobResult.failure(job, "crashed", "boom"))
        assert cache.get(job) is None and len(cache) == 0

    def test_no_cache_jobs_always_miss(self):
        cache = ResultCache()
        cached_job = Job("run", id="a", source="(1 + 1)")
        cache.put(cached_job, self._ok(cached_job))
        bypass = Job("run", id="b", source="(1 + 1)",
                     options=JobOptions(no_cache=True))
        assert cache.get(bypass) is None
        cache.put(bypass, self._ok(bypass))
        assert len(cache) == 1            # the bypass was not stored either

    def test_stats_shape(self):
        cache = ResultCache(maxsize=8)
        assert set(cache.stats()) == {"size", "maxsize", "hits", "misses",
                                      "evictions"}
