"""Checkpoint/resume tests (:mod:`repro.resilience.checkpoint`).

The headline property (ISSUE acceptance): for every paper example,
``run(fuel=n)`` is *exactly* equivalent to ``run(fuel=k); snapshot;
restore; resume(fuel=n-k)`` at every split point ``k`` -- including
across a pickle/wire roundtrip, i.e. on "another worker".  Exactness
(zero slack) holds because fuel is charged only on contractions,
boundary entries, and T steps, never on context descent, so a resumed
run re-descends its rebuilt expression for free.
"""

import hashlib
import pickle

import pytest

from repro.errors import FuelExhausted, SnapshotError
from repro.ft.machine import FTMachine, evaluate_ft
from repro.papers_examples import example_entries
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import MachineSnapshot


def _reference(build):
    """(pretty value, exact fuel spend) on an un-checkpointed run."""
    value, machine = evaluate_ft(build())
    return str(value), machine.budget.fuel_used


def v1_wire_snapshot():
    """A suspended fact-f run checkpointed in the version-1 layout:
    suspension records plus a hole value instead of a control stack."""
    _, build = example_entries()["fact-f"]
    machine = FTMachine(budget=Budget(fuel=10))
    with pytest.raises(FuelExhausted):
        machine.evaluate(build())
    state = machine.snapshot_resumable()
    del state["stack"]
    state.update(state=None, suspension=[("f", build())], hole_value=None)
    payload = pickle.dumps({"version": 1, "kind": "ft", "state": state,
                            "marks": {}})
    return MachineSnapshot("ft", payload,
                           hashlib.sha256(payload).hexdigest()).to_wire()


def _split_points(total):
    """A few interesting splits: first step, a third, half, last step."""
    if total < 2:
        return []
    picks = {1, total // 3, total // 2, total - 1}
    return sorted(k for k in picks if 0 < k < total)


class TestSnapshotObject:
    def test_capture_restore_roundtrip(self):
        machine = FTMachine(budget=Budget(fuel=123))
        snap = machine.snapshot()
        assert snap.kind == "ft"
        assert len(snap.digest) == 64
        revived = FTMachine.restore(snap)
        assert revived.budget.max_fuel == 123

    def test_wire_roundtrip_preserves_digest(self):
        machine = FTMachine()
        snap = machine.snapshot()
        wire = snap.to_wire()
        assert set(wire) == {"kind", "digest", "data"}
        back = MachineSnapshot.from_wire(wire)
        assert back.digest == snap.digest
        FTMachine.restore(back)

    def test_tampered_payload_is_rejected(self):
        snap = FTMachine().snapshot()
        wire = snap.to_wire()
        import base64

        raw = bytearray(base64.b64decode(wire["data"]))
        raw[len(raw) // 2] ^= 0xFF
        wire["data"] = base64.b64encode(bytes(raw)).decode("ascii")
        with pytest.raises(SnapshotError):
            MachineSnapshot.from_wire(wire).state()

    def test_wrong_kind_is_rejected(self):
        from repro.tal.machine import TalMachine

        snap = FTMachine().snapshot()
        with pytest.raises(SnapshotError):
            TalMachine.restore(snap)

    def test_version_1_snapshot_is_refused(self):
        snap = MachineSnapshot.from_wire(v1_wire_snapshot())
        with pytest.raises(SnapshotError, match="unsupported snapshot "
                                               "version 1"):
            FTMachine.restore(snap)

    def test_resume_without_suspension_is_an_error(self):
        with pytest.raises(SnapshotError):
            FTMachine().resume()


class TestExactSplitEquivalence:
    """run(n) == run(k); snapshot; restore; resume(n-k), exactly."""

    @pytest.mark.parametrize("name", sorted(example_entries()))
    def test_every_example_every_split(self, name):
        _, build = example_entries()[name]
        expected, total = _reference(build)
        for k in _split_points(total):
            machine = FTMachine(budget=Budget(fuel=k))
            with pytest.raises(FuelExhausted):
                machine.evaluate(build())
            assert machine.suspended
            # ... across a full pickle/wire roundtrip: the resumed
            # machine is built from bytes, as on another worker.
            wire = machine.snapshot().to_wire()
            revived = FTMachine.restore(MachineSnapshot.from_wire(wire))
            outcome = revived.resume(fuel=total - k)
            assert str(outcome) == expected, (name, k, total)
            # Exactness: the second slice spends exactly the remainder.
            assert revived.budget.fuel_used == total - k, (name, k)

    def test_multi_hop_single_fuel_slices(self):
        # The adversarial schedule: 1 fuel per slice, snapshot between
        # every hop.  Guarantees progress (no livelock) because every
        # slice performs at least one contraction.
        _, build = example_entries()["fact-f"]
        expected, total = _reference(build)
        machine = FTMachine(budget=Budget(fuel=1))
        outcome = None
        hops = 0
        try:
            machine.evaluate(build())
            pytest.fail("expected suspension at fuel=1")
        except FuelExhausted:
            pass
        while outcome is None:
            wire = machine.snapshot().to_wire()
            machine = FTMachine.restore(MachineSnapshot.from_wire(wire))
            try:
                outcome = machine.resume(fuel=1)
            except FuelExhausted:
                hops += 1
                assert hops <= total + 1, "no progress: livelock"
        assert str(outcome) == expected
        # Slice 0 and the final (non-raising) hop each perform one
        # contraction; every counted hop performs exactly one more.
        assert hops == total - 2

    def test_heap_charges_survive_the_roundtrip(self):
        # Heap spend is cumulative across slices: a restored machine
        # keeps governing against what the first slice already used.
        _, build = example_entries()["fact-t"]
        machine = FTMachine(budget=Budget(fuel=8, heap=10_000))
        with pytest.raises(FuelExhausted):
            machine.evaluate(build())
        used = machine.budget.heap_used
        revived = FTMachine.restore(
            MachineSnapshot.from_wire(machine.snapshot().to_wire()))
        assert revived.budget.heap_used == used


class TestFEvaluatorCheckpoint:
    def test_f_snapshot_resume_exact(self):
        from repro.f.eval import FEvaluator
        from repro.f.syntax import App, BinOp, FInt, IntE, Lam, Var

        f = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
        expr = IntE(0)
        for _ in range(50):
            expr = App(f, (expr,))
        reference = FEvaluator(expr)
        value = reference.run()
        total = reference.budget.fuel_used
        for k in _split_points(total):
            ev = FEvaluator(expr, fuel=k)
            with pytest.raises(FuelExhausted):
                ev.run()
            snap = ev.snapshot()
            revived = FEvaluator.restore(
                pickle.loads(pickle.dumps(snap)))
            assert revived.run(fuel=total - k) == value

    def test_tal_snapshot_resume(self):
        from repro.surface.parser import parse_program
        from repro.tal.machine import TalMachine

        comp = parse_program(
            "(mv r1, 7; mv r2, 3; add r1, r1, r2; add r1, r1, r1; "
            "halt int, nil {r1}, .)")
        full = TalMachine()
        halted = full.run_seq(full.load_component(comp))
        machine = TalMachine(budget=Budget(fuel=2))
        with pytest.raises(FuelExhausted):
            machine.run_seq(machine.load_component(comp))
        revived = TalMachine.restore(
            MachineSnapshot.from_wire(machine.snapshot().to_wire()))
        out = revived.resume(fuel=100)
        assert str(out.word) == str(halted.word)
