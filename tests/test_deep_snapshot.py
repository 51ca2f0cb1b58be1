"""Checkpoints and store payloads of deeply nested states.

Pickling recurses on the host once per level of nesting.  A state the
checkpoint layer can pickle round-trips; a deeper one raises
:class:`SnapshotError` and leaves the machine resumable -- it must never
overflow the C stack.  Each case runs in a subprocess, so a crash fails
its test instead of the whole run.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PRELUDE = """
import sys
sys.path.insert(0, {src!r})
from repro.errors import FuelExhausted, SnapshotError
from repro.f.syntax import App, BinOp, IntE, iter_subexprs, Var
from repro.ft.machine import FTMachine
from repro.papers_examples.fig17_factorial import build_fact_f
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import MachineSnapshot

def chain(depth):
    e = Var("x")
    for _ in range(depth):
        e = BinOp("+", e, IntE(1))
    return e

def size(e):
    return sum(1 for _ in iter_subexprs(e))

def suspended_fact(n, fuel):
    machine = FTMachine(budget=Budget(fuel=fuel))
    try:
        machine.evaluate(App(build_fact_f(), (IntE(n),)))
    except FuelExhausted:
        return machine
    raise AssertionError("the run finished inside its fuel")
"""


def run(body: str) -> str:
    """Run ``body`` after :data:`PRELUDE` in a fresh interpreter; its last
    output line."""
    script = PRELUDE.format(src=SRC) + textwrap.dedent(body)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, (
        f"exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


class TestDeepCheckpoint:
    def test_deep_term_round_trips(self):
        assert run("""
            snap = MachineSnapshot.capture("f", {"expr": chain(20_000)})
            print(size(snap.state()["expr"]))
        """) == str(2 * 20_000 + 1)

    def test_too_deep_term_is_a_snapshot_error(self):
        assert run("""
            try:
                MachineSnapshot.capture("f", {"expr": chain(40_000)})
            except SnapshotError as exc:
                print("SnapshotError:", "recursion" in str(exc))
        """) == "SnapshotError: True"

    def test_deep_machine_snapshots_and_restores(self):
        assert run("""
            machine = suspended_fact(20_000, 96_000)
            restored = FTMachine.restore(machine.snapshot())
            print(restored.suspended)
        """) == "True"

    def test_too_deep_machine_stays_resumable(self):
        # Suspended mid-descent inside the default 1,000,000 fuel.
        assert run("""
            machine = suspended_fact(45_000, 216_721)
            try:
                machine.snapshot()
            except SnapshotError:
                pass
            try:
                machine.resume(fuel=10)
            except FuelExhausted:
                print("resumed", machine.suspended)
        """) == "resumed True"


class TestDeepStorePayload:
    @pytest.mark.parametrize("depth,outcome", [
        (20_000, str(2 * 20_000 + 1)),
        (40_000, "SnapshotError"),
    ])
    def test_store_payload(self, tmp_path, depth, outcome):
        assert run(f"""
            from repro.link.store import ArtifactStore
            store = ArtifactStore({str(tmp_path)!r})
            try:
                store.put("d" * 64, chain({depth}))
            except SnapshotError:
                print("SnapshotError")
            else:
                print(size(store.get("d" * 64)[1]))
        """) == outcome
