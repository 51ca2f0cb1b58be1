"""Lint for the serve protocol's option partition.

Every :class:`~repro.serve.protocol.JobOptions` field is classified in
exactly one of the audited ``SEMANTIC_OPTIONS`` /
``NON_SEMANTIC_OPTIONS`` constants, so adding an option without
deciding its result-cache behaviour fails a test instead of silently
corrupting cache keys.
"""

import dataclasses

from repro.serve.protocol import (
    NON_SEMANTIC_OPTIONS, SEMANTIC_OPTIONS, JobOptions,
)


class TestJobOptionsPartition:
    def test_every_field_classified_exactly_once(self):
        """Adding a JobOptions field without classifying it (semantic:
        part of the result-cache key; non-semantic: execution policy
        only) must fail here."""
        names = {f.name for f in dataclasses.fields(JobOptions)}
        semantic = set(SEMANTIC_OPTIONS)
        non_semantic = set(NON_SEMANTIC_OPTIONS)
        assert semantic & non_semantic == set(), \
            "options classified twice"
        unclassified = names - semantic - non_semantic
        assert not unclassified, (
            f"unclassified JobOptions fields {sorted(unclassified)}: add "
            "each to SEMANTIC_OPTIONS (cache-key-relevant) or "
            "NON_SEMANTIC_OPTIONS (execution policy) in "
            "repro.serve.protocol with a rationale")
        phantom = (semantic | non_semantic) - names
        assert not phantom, f"classified but nonexistent: {sorted(phantom)}"

    def test_cache_key_ignores_exactly_the_non_semantic(self):
        """The result-cache key must change with any semantic option
        and with no non-semantic one."""
        from repro.serve.cache import job_cache_key
        from repro.serve.protocol import Job

        base = Job("run", source="(1 + 2)")
        key = job_cache_key(base)

        probes = {
            "fuel": 123, "heap": 44, "depth": 45, "checkpoint": True,
            "jit": True, "result_type": "unit", "trace": True,
            "check": True, "validate": True, "ir": True, "seed": 9,
            "type": "int", "right": "(2 + 2)", "run": False,
        }
        for name in SEMANTIC_OPTIONS:
            job = Job("run", source="(1 + 2)")
            setattr(job.options, name, probes.get(name, "probe"))
            assert job_cache_key(job) != key, \
                f"semantic option {name} must change the cache key"

        non_probes = {
            "timeout": 9.0, "no_cache": True, "engine": "subst",
            "tal_engine": "fast", "store": "/tmp/x", "deadline_ms": 5,
            "checkpoint_every": 10, "degraded": True,
            "inject_crash": True, "inject_sleep": 1.0,
            "inject_hang": True, "inject_corrupt": True,
            "inject_crash_at": 2, "chaos_rate": 0.5, "chaos_seed": 3,
            "chaos_seams": "jit.run",
        }
        for name in NON_SEMANTIC_OPTIONS:
            job = Job("run", source="(1 + 2)")
            setattr(job.options, name, non_probes.get(name, "probe"))
            assert job_cache_key(job) == key, \
                f"non-semantic option {name} must not change the cache key"
