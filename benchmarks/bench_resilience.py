"""Resilience-layer benchmarks: governor overhead, checkpoint costs, and
the chaos drill, written to ``BENCH_resilience.json`` at the repo root
(alongside ``BENCH_obs.json`` / ``BENCH_serve.json``) so CI archives the
resilient-runtime trajectory:

* ``governed_runs`` -- wall time per paper example under the unified
  :class:`~repro.resilience.budget.Budget` governor.  The governor's hot
  path (``consume_fuel``) replaced the bare ``fuel -= 1`` the machines
  used before this layer (PR 2's serving baseline), so these timings ARE
  the governed trajectory to diff against that PR's artifact.
* ``governor_overhead`` -- microbenchmark of ``consume_fuel`` against an
  empty-loop baseline: the per-step cost of governing at all.
* ``checkpoint`` -- snapshot capture / wire-encode / restore / resume
  latency and payload size at a mid-run suspension of ``fact-f``.
* ``chaos`` -- the fixed-seed drill (seeds 0,1,2 over every example):
  asserted zero wrong answers and zero unhandled exceptions.
* ``serve_drill`` -- the serve-fleet storm (``funtal chaos drill
  --serve``): >= 200 mixed jobs against a live worker pool under kills,
  hangs, corrupt envelopes, and store faults.  Gated hard in CI:
  ``jobs_lost`` must be 0 and at least one job must finish via mid-run
  checkpoint recovery on a sibling worker; MTTR quantiles are archived.
"""

import json
import pathlib
import time

import pytest

from repro.errors import FuelExhausted
from repro.ft.machine import FTMachine, evaluate_ft
from repro.papers_examples import example_entries
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import MachineSnapshot

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_BENCH_PATH = _REPO_ROOT / "BENCH_resilience.json"

_RESULTS = {}

ROUNDS = 5


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    yield
    if _RESULTS:
        _BENCH_PATH.write_text(
            json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")


def _time(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_governed_example_runs(record):
    rows = {}
    for name, (_, build) in example_entries().items():
        program = build()
        value, machine = evaluate_ft(program)
        rows[name] = {
            "best_s": round(_time(lambda p=program: evaluate_ft(p)), 6),
            "fuel_used": machine.budget.fuel_used,
            "heap_used": machine.budget.heap_used,
            "depth_high_water": machine.budget.depth_high_water,
        }
        record(f"{name}: {rows[name]}")
    _RESULTS["governed_runs"] = rows
    assert all(r["fuel_used"] > 0 for r in rows.values())


def test_governor_hot_path_overhead(record):
    n = 200_000

    def governed():
        budget = Budget(fuel=n + 1)
        for _ in range(n):
            budget.consume_fuel()

    def baseline():
        for _ in range(n):
            pass

    governed_s = _time(governed)
    baseline_s = _time(baseline)
    per_step_ns = (governed_s - baseline_s) / n * 1e9
    _RESULTS["governor_overhead"] = {
        "steps": n,
        "governed_s": round(governed_s, 6),
        "empty_loop_s": round(baseline_s, 6),
        "per_step_ns": round(per_step_ns, 1),
    }
    record(f"consume_fuel: {per_step_ns:.0f} ns/step over empty loop")
    # Generous sanity bound -- the governor must stay a few dict-free
    # int ops, not a metrics call, per step.
    assert per_step_ns < 5_000


def test_checkpoint_costs(record):
    _, build = example_entries()["fact-f"]
    reference, _ = evaluate_ft(build())
    machine = FTMachine(budget=Budget(fuel=20))
    with pytest.raises(FuelExhausted):
        machine.evaluate(build())

    snap = machine.snapshot()
    capture_s = _time(machine.snapshot)
    wire = snap.to_wire()
    encode_s = _time(snap.to_wire)
    restore_s = _time(
        lambda: FTMachine.restore(MachineSnapshot.from_wire(wire)))

    def resume_run():
        revived = FTMachine.restore(MachineSnapshot.from_wire(wire))
        return revived.resume(fuel=1_000_000)

    outcome = resume_run()
    assert str(outcome) == str(reference)
    resume_s = _time(resume_run)
    _RESULTS["checkpoint"] = {
        "payload_bytes": len(snap.payload),
        "capture_s": round(capture_s, 6),
        "wire_encode_s": round(encode_s, 6),
        "restore_s": round(restore_s, 6),
        "restore_and_resume_s": round(resume_s, 6),
    }
    record(f"checkpoint: {_RESULTS['checkpoint']}")


def test_chaos_drill(record, capsys):
    from repro.cli import main

    assert main(["chaos", "--seeds", "0,1,2", "--rate", "0.05",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == 0
    _RESULTS["chaos"] = {
        "seeds": payload["seeds"],
        "rate": payload["rate"],
        "trials": len(payload["rows"]),
        "failures": payload["failures"],
        "faults_injected": sum(r["faults"] for r in payload["rows"]),
    }
    record(f"chaos drill: {_RESULTS['chaos']}")


def test_serve_chaos_drill(record):
    """The serve-fleet storm (supervision acceptance gate).

    Seeded corpus of >= 200 mixed jobs -- runs, typechecks, links
    against a chaos-armed artifact store, adversarial components,
    checkpointed runs -- with ~10% of jobs carrying worker kills,
    hangs, corrupt result envelopes, or long stalls.  The invariants:

    * ``jobs_lost == 0`` -- every submitted job resolves terminally;
    * ``recovered >= 1`` -- at least one killed job finished from its
      mid-run checkpoint on a *different* worker (not a cold restart).
    """
    from repro.serve.drill import run_serve_drill

    report = run_serve_drill(seed=0, jobs=200, workers=4, rate=0.1)
    _RESULTS["serve_drill"] = {
        "seed": report["seed"],
        "jobs": report["jobs"],
        "workers": report["workers"],
        "fault_rate": report["fault_rate"],
        "statuses": report["statuses"],
        "jobs_lost": report["lost"],
        "recovered": report["recovered"],
        "degraded": report["degraded"],
        "quarantined_digests": report["quarantine"].get("size", 0),
        "mttr_ms": {k: round(v, 3) if isinstance(v, float) else v
                    for k, v in report["mttr_ms"].items()},
        "wall_s": report["duration_s"],
    }
    record(f"serve drill: {_RESULTS['serve_drill']}")
    assert report["lost"] == 0, f"lost jobs: {report['lost_ids']}"
    assert report["recovered"] >= 1
