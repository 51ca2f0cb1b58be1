"""Deterministic chaos harness tests (:mod:`repro.resilience.chaos`).

A seeded :class:`FaultPlane` injects :class:`InjectedFault` at named
seams.  Determinism is the contract: the fault schedule is a pure
function of (seed, rate, seam filter, probe sequence), so every failure
a chaos run finds is replayable from its seed.
"""

import pytest

from repro.errors import InjectedFault
from repro.resilience.chaos import (
    SEAMS, FaultPlane, active_plane, probe,
)


def _schedule(seed, rate, probes=50, seams=None):
    fired = []
    with FaultPlane(seed=seed, rate=rate, seams=seams) as plane:
        for i in range(probes):
            try:
                probe("heap.alloc", str(i))
            except InjectedFault:
                fired.append(i)
    return fired, plane.summary()


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a, _ = _schedule(seed=3, rate=0.5)
        b, _ = _schedule(seed=3, rate=0.5)
        assert a == b and a          # identical and non-empty

    def test_different_seeds_differ(self):
        a, _ = _schedule(seed=1, rate=0.5)
        b, _ = _schedule(seed=2, rate=0.5)
        assert a != b

    def test_rate_zero_never_fires(self):
        fired, summary = _schedule(seed=1, rate=0.0)
        assert fired == []
        assert summary["faults"] == 0
        assert summary["probes"] == 50

    def test_rate_one_always_fires(self):
        fired, _ = _schedule(seed=1, rate=1.0)
        assert fired == list(range(50))

    def test_max_faults_cap(self):
        fired = []
        with FaultPlane(seed=1, rate=1.0, max_faults=3):
            for i in range(10):
                try:
                    probe("heap.alloc")
                except InjectedFault:
                    fired.append(i)
        assert fired == [0, 1, 2]


class TestPlaneLifecycle:
    def test_no_plane_means_no_faults(self):
        assert active_plane() is None
        probe("heap.alloc")          # no-op outside a plane

    def test_nested_planes_are_rejected(self):
        with FaultPlane(seed=1):
            with pytest.raises(RuntimeError):
                with FaultPlane(seed=2):
                    pass

    def test_plane_deactivates_on_exit(self):
        with FaultPlane(seed=1, rate=1.0):
            pass
        probe("heap.alloc")          # plane gone: must not raise

    def test_unknown_seam_is_rejected(self):
        with pytest.raises(ValueError):
            FaultPlane(seed=1, seams=["no.such.seam"])

    def test_seam_filter(self):
        with FaultPlane(seed=1, rate=1.0, seams=["jit.compile"]):
            probe("heap.alloc")      # filtered out: no fault
            with pytest.raises(InjectedFault):
                probe("jit.compile")

    def test_fault_log_names_the_seam(self):
        with FaultPlane(seed=1, rate=1.0) as plane:
            with pytest.raises(InjectedFault) as exc:
                probe("boundary.translate", "TF[int]")
        assert exc.value.seam == "boundary.translate"
        assert plane.summary()["per_seam"]["boundary.translate"] == 1


class TestSeamsAreWired:
    """Every named seam is reachable from the real operation it guards."""

    def test_seam_registry(self):
        assert set(SEAMS) == {"heap.alloc", "boundary.translate",
                              "jit.compile", "jit.run", "snapshot.pickle",
                              "snapshot.restore", "store.io"}

    def test_snapshot_restore_seam(self):
        from repro.ft.machine import FTMachine

        snap = FTMachine().snapshot()
        with FaultPlane(seed=1, rate=1.0, seams=["snapshot.restore"]):
            with pytest.raises(InjectedFault):
                FTMachine.restore(snap)

    def test_store_io_seam(self, tmp_path):
        from repro.link.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        with FaultPlane(seed=1, rate=1.0, seams=["store.io"]):
            with pytest.raises(InjectedFault):
                store.put("0" * 64, {"x": 1})
            with pytest.raises(InjectedFault):
                store.get("0" * 64)

    def test_heap_alloc_seam(self):
        from repro.errors import FunTALError
        from repro.ft.machine import evaluate_ft
        from repro.papers_examples import resolve_example

        _, build = resolve_example("fact-t")
        with FaultPlane(seed=1, rate=1.0, seams=["heap.alloc"]):
            with pytest.raises(InjectedFault):
                evaluate_ft(build())

    def test_boundary_translate_seam(self):
        from repro.ft.machine import evaluate_ft
        from repro.papers_examples import resolve_example

        _, build = resolve_example("fact-t")
        with FaultPlane(seed=1, rate=1.0, seams=["boundary.translate"]):
            # the lazily formatted detail names the translated type
            pattern = r"'boundary\.translate': (TF\[.+\]|.+FT)$"
            with pytest.raises(InjectedFault, match=pattern):
                evaluate_ft(build())

    def test_jit_compile_seam(self):
        from repro.f.syntax import BinOp, FInt, IntE, Lam, Var
        from repro.compile import clear_compile_cache, compile_function

        clear_compile_cache()
        lam = Lam((("x", FInt()),), BinOp("+", Var("x"), IntE(1)))
        with FaultPlane(seed=1, rate=1.0, seams=["jit.compile"]):
            with pytest.raises(InjectedFault):
                compile_function(lam)

    def test_snapshot_pickle_seam(self):
        from repro.ft.machine import FTMachine

        with FaultPlane(seed=1, rate=1.0, seams=["snapshot.pickle"]):
            with pytest.raises(InjectedFault):
                FTMachine().snapshot()


class TestChaosCommand:
    """``funtal chaos``: the fixed-seed drill CI runs.  Zero wrong
    answers and zero unhandled exceptions, at every seam."""

    def test_three_fixed_seeds_over_all_examples(self):
        from repro.cli import main

        assert main(["chaos", "--seeds", "0,1,2", "--rate", "0.05"]) == 0

    def test_high_rate_still_degrades_cleanly(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--seeds", "9", "--rate", "0.7",
                     "--examples", "fact-f,fact-t", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == 0
        assert {row["example"] for row in payload["rows"]} == \
            {"fact-f", "fact-t"}

    def test_unknown_seam_exits_2(self):
        from repro.cli import main

        assert main(["chaos", "--seams", "bogus"]) == 2
