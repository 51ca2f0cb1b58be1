#!/usr/bin/env python3
"""The evaluation service, end to end (see docs/serving.md).

This script embeds a :class:`~repro.serve.server.ServeServer` in-process
(the same thing ``funtal serve`` runs in the foreground), connects the
client library to it over TCP, and walks through the service's story:

1. the paper workloads as jobs: Fig 17's two factorials (run + traced)
   and Fig 16's two-block equivalence as an ``equiv`` job;
2. cached vs fresh latency: the same job resubmitted is served from the
   content-addressed result cache without touching a worker;
3. fault isolation: a job that kills its worker mid-execution is retried
   and reported ``crashed`` while the server keeps serving.  Faults are
   in-process only (``Job.fault``): no client can send one, so this
   part submits straight to the server's pool.
"""

import time

from repro.resilience.chaos import Fault
from repro.serve.client import ServeClient
from repro.serve.protocol import Job, JobOptions
from repro.serve.server import ServeServer


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, (time.perf_counter() - start) * 1000.0


def main() -> None:
    with ServeServer(port=0, workers=2) as server:
        print(f"serving on 127.0.0.1:{server.port} (2 workers)")
        with ServeClient(port=server.port) as client:
            print()
            print("=== Paper workloads as jobs ===")
            # Fig 17: both factorials (functional and imperative) on 6.
            fig17 = client.submit(Job("run", example="fig17"))
            print(f"fig17  {fig17.status}  value={fig17.output['value']}  "
                  f"steps={fig17.output['steps']}  "
                  f"{fig17.duration_ms:.2f}ms on worker {fig17.worker}")
            # Fig 16: the two-block components are contextually equivalent
            # -- here as an equiv job over behaviourally equal F wrappers.
            fig16 = client.submit(Job(
                "equiv", source="lam (x: int). (x + x)",
                options=JobOptions(right="lam (x: int). (x * 2)",
                                   type="(int) -> int", fuel=5_000)))
            print(f"fig16-style equiv  {fig16.status}  "
                  f"equivalent={fig16.output['equivalent']}  "
                  f"({fig16.output['report']})")

            print()
            print("=== Cached vs fresh latency ===")
            job = lambda: Job("run", example="fact-t",
                              options=JobOptions(trace=True))
            fresh, fresh_ms = timed(lambda: client.submit(job()))
            served, served_ms = timed(lambda: client.submit(job()))
            assert fresh.ok and served.ok and served.cached
            print(f"fresh run:  {fresh_ms:7.2f}ms round trip "
                  f"(executor {fresh.duration_ms:.2f}ms)")
            print(f"cache hit:  {served_ms:7.2f}ms round trip "
                  f"(no worker involved)")

            print()
            print("=== Fault isolation ===")
            boom = server.pool.submit(Job(
                "run", source="(1 + 1)", fault=Fault("crash"))).wait(60.0)
            print(f"crashing job: status={boom.status} "
                  f"after {boom.attempts} attempts ({boom.error})")
            after = client.submit(Job("run", example="fact-f"))
            print(f"next job on the same connection: {after.status} "
                  f"value={after.output['value']} -- the server survived")

            stats = client.stats()
            pool = stats["pool"]
            print()
            print(f"pool: {pool['workers']} workers, "
                  f"cache {pool['cache']['hits']} hits / "
                  f"{pool['cache']['misses']} misses")
    print("server stopped")


if __name__ == "__main__":
    main()
