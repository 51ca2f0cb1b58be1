"""Separate-compilation benchmarks, written to ``BENCH_link.json``.

Three sections, doubling as the CI gate for :mod:`repro.link`:

* ``incremental`` -- the headline gate: a cold build of a multi-
  component manifest compiles every component; a warm rebuild compiles
  **zero**; editing one component recompiles **exactly one**.  The store
  round-trip times quantify what incrementality buys per component;
* ``link_time`` -- linking cost (interface checks + alpha-renaming +
  substitution) for the three-component program, which must stay well
  below one cold component compile -- otherwise separate compilation
  would be pointless;
* ``differential`` -- the linked program's value equals both the
  interpreted manifest-inlined source and the whole-program
  ``compile_term`` pipeline on the same source.
"""

import json
import pathlib
import time

import pytest

from repro.f.syntax import App, IntE
from repro.ft.machine import FTMachine
from repro.ft.typecheck import check_ft_expr
from repro.compile.pipeline import clear_compile_cache, compile_term
from repro.link import ArtifactStore, build_and_link, build_manifest, \
    link_components, parse_manifest
from repro.resilience.budget import Budget
from repro.surface.parser import parse_fexpr

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
_BENCH_PATH = _REPO_ROOT / "BENCH_link.json"

_RESULTS = {}

ROUNDS = 5
RUN_FUEL = 10_000_000

MANIFEST = {
    "components": {
        "double": "lam (x: int). (x + x)",
        "quad": "lam (x: int). double (double x)",
        "fact": {"builtin": "fact-t"},
    },
    "main": "quad (fact 3)",
}
#: The same program with the compiled components inlined by hand.
WHOLE_SOURCE = ("(lam (x: int). "
                "((lam (y: int). (y + y)) ((lam (y: int). (y + y)) x)))")
EDITED_QUAD = "lam (x: int). double (double (x + 0))"


@pytest.fixture(scope="module", autouse=True)
def write_artifact():
    yield
    if _RESULTS:
        _BENCH_PATH.write_text(
            json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")


def _best(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _manifest(quad=MANIFEST["components"]["quad"]):
    data = {"components": dict(MANIFEST["components"], quad=quad),
            "main": MANIFEST["main"]}
    return parse_manifest(json.dumps(data))


def _run(program):
    machine = FTMachine(budget=Budget(fuel=RUN_FUEL))
    value = machine.evaluate(program)
    return value, machine.budget.fuel_used


def test_incremental_rebuild_gate(record, tmp_path):
    """Cold: all compile.  Warm: none.  One edit: exactly one."""
    store = ArtifactStore(tmp_path / "store")
    clear_compile_cache()            # store effects, not memo effects

    start = time.perf_counter()
    cold = build_manifest(_manifest(), store)
    cold_s = time.perf_counter() - start
    assert sorted(cold.recompiled) == ["double", "fact", "quad"]

    clear_compile_cache()
    start = time.perf_counter()
    warm = build_manifest(_manifest(), store)
    warm_s = time.perf_counter() - start
    assert warm.recompiled == []            # THE gate: zero recompiles
    assert sorted(warm.cached) == ["double", "fact", "quad"]

    clear_compile_cache()
    start = time.perf_counter()
    edited = build_manifest(_manifest(quad=EDITED_QUAD), store)
    edit_s = time.perf_counter() - start
    assert edited.recompiled == ["quad"]    # ... and exactly one on edit
    assert sorted(edited.cached) == ["double", "fact"]

    _RESULTS["incremental"] = {
        "components": len(MANIFEST["components"]),
        "cold_build_s": round(cold_s, 6),
        "warm_build_s": round(warm_s, 6),
        "edit_one_build_s": round(edit_s, 6),
        "cold_recompiled": sorted(cold.recompiled),
        "warm_recompiled": warm.recompiled,
        "edit_recompiled": edited.recompiled,
        "speedup_warm": round(cold_s / max(warm_s, 1e-9), 1),
    }
    record(f"cold {cold_s * 1e3:.2f}ms (3 compiles), "
           f"warm {warm_s * 1e3:.2f}ms (0), "
           f"edit-one {edit_s * 1e3:.2f}ms (1)")


def test_link_time(record, tmp_path):
    store = ArtifactStore(tmp_path / "store")
    report = build_manifest(_manifest(), store)
    units = report.units()
    main = report.main

    link_s = _best(lambda: link_components(units, main))
    clear_compile_cache()
    compile_s = _best(lambda: (clear_compile_cache(),
                               compile_term(parse_fexpr(WHOLE_SOURCE))))
    linked = link_components(units, main)
    _RESULTS["link_time"] = {
        "link_s": round(link_s, 6),
        "whole_compile_s": round(compile_s, 6),
        "labels_renamed": linked.labels_renamed,
    }
    record(f"link {link_s * 1e6:.0f}us vs whole compile "
           f"{compile_s * 1e3:.2f}ms, {linked.labels_renamed} labels")
    # Linking must be cheap relative to compilation, or separate
    # compilation buys nothing.
    assert link_s < compile_s


def test_differential_gate(record, tmp_path):
    """Linked value == interpreted value == whole-program-compiled
    value, and the linked program typechecks closed."""
    store = ArtifactStore(tmp_path / "store")
    _, linked = build_and_link(
        _manifest(), store,
    )
    ty, _ = check_ft_expr(linked.program)
    linked_value, linked_fuel = _run(linked.program)

    # fact 3 = 6; quad doubles twice: 6 * 4 = 24.
    assert str(ty) == "int"
    assert linked_value == IntE(24)

    whole = compile_term(parse_fexpr(WHOLE_SOURCE))
    whole_value, whole_fuel = _run(App(whole.wrapped, (IntE(6),)))
    assert whole_value == IntE(24)

    _RESULTS["differential"] = {
        "type": str(ty),
        "linked_value": str(linked_value),
        "whole_program_value": str(whole_value),
        "linked_fuel": linked_fuel,
        "whole_program_fuel": whole_fuel,
    }
    record(f"linked {linked_value} ({linked_fuel} fuel) == "
           f"whole-program {whole_value} ({whole_fuel} fuel)")
