"""Worker-side promotion: earn (or reuse) a signed tier receipt.

A ``promote`` job is scheduled by the pool's
:class:`~repro.tiering.coordinator.TieringCoordinator` when a digest
crosses the policy threshold.  It runs in a serve worker like any
other job -- promotion work never blocks foreground traffic, it just
competes for worker slots at queue discipline.

The promotion pipeline for a digest:

1. **Receipt lookup** -- a verified receipt in the store means some
   process already paid for validation; reuse it
   (``tiering.validate.receipt_hit``).
2. **Typecheck gate** -- ``check_ft_expr`` / ``check_ft_component``.
   The four :mod:`repro.adversarial` components die here with
   :class:`~repro.errors.FTTypeError`, which the coordinator maps to
   ``quarantined``: code that does not typecheck is never promoted,
   full stop.
3. **Compile + translation validation** (expressions the compiler
   covers): ``compile_term``, artifact stored, and
   :func:`repro.link.build.cached_validation` -- the PR 7 amortization,
   counted as ``tiering.validate.performed`` when actually run.
4. **Profiled differential trial** -- the program runs once on the
   reference TAL engine with the profiler attached (harvesting the
   runtime T-block digests the template JIT keys on) and once on the
   fast engine; answers and step counts must agree exactly.  This is
   the PR 3 safety-net stance applied at promotion time.
5. **Receipt write** -- the signed payload future workers trust.

:func:`apply_promotion` is the cheap half: given a receipt payload it
seeds the fast tier's promoted-digest set and JIT threshold in the
current process.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FunTALError
from repro.obs import OBS
from repro.obs.profile import PROFILER, content_hash
from repro.tiering.policy import TieringPolicy, active_policy
from repro.tiering.receipts import ReceiptBook


def program_digest(source: Optional[str] = None,
                   example: Optional[str] = None) -> str:
    """Content digest of a serve job's program text.

    Computed from the job fields alone (no parsing) so the pool side
    and the worker side agree without sharing state.
    """
    ident = f"example:{example}" if example is not None else (source or "")
    return content_hash(ident, "job")


def _profiled_reference_run(node: Any, is_component: bool,
                            fuel: Optional[int]
                            ) -> Tuple[str, int, List[str]]:
    """Run once on the reference TAL engine with the profiler attached.

    Returns ``(answer, steps, t_block_digests)``.  The digests are the
    profiler's runtime keys -- the same ``content_hash(block, "t")``
    the fast tier's template JIT compares against, renamed heap and
    all, so a receipt earned here promotes exactly the blocks that
    will run.
    """
    from repro.ft.machine import evaluate_ft, run_ft_component

    was_enabled = PROFILER.enabled
    PROFILER.reset()
    PROFILER.enable()
    try:
        if is_component:
            halted, machine = run_ft_component(node, fuel=fuel,
                                               tal_engine="ref")
            answer = str(halted.word)
        else:
            value, machine = evaluate_ft(node, fuel=fuel, tal_engine="ref")
            answer = str(value)
        snap = PROFILER.snapshot()
    finally:
        PROFILER.disable()
        PROFILER.reset()
        if was_enabled:
            PROFILER.enable()
    return answer, machine.steps, sorted(snap.promote(1, kinds=("t",)))


def _fast_run(node: Any, is_component: bool,
              fuel: Optional[int]) -> Tuple[str, int]:
    from repro.ft.machine import evaluate_ft, run_ft_component

    if is_component:
        halted, machine = run_ft_component(node, fuel=fuel,
                                           tal_engine="fast")
        return str(halted.word), machine.steps
    value, machine = evaluate_ft(node, fuel=fuel, tal_engine="fast")
    return str(value), machine.steps


def _compile_and_validate(node: Any, store, policy: TieringPolicy,
                          ) -> Tuple[Optional[str], Optional[str]]:
    """Compile an eligible expression, store the artifact, validate.

    Returns ``(compile_tier, artifact_digest)`` -- ``("general",
    digest)`` for a compiled expression, ``(None, None)`` when the
    compiler does not cover it (hand-written FT code still gets the
    differential trial + typecheck gate).
    Raises :class:`FunTALError` when translation validation refutes
    the compile, which the coordinator treats as semantic trouble.
    """
    from repro.compile.pipeline import compile_term, is_general_compilable
    from repro.link import ComponentInterface, component_digest
    from repro.link.build import StoredComponent, cached_validation
    from repro.link.interface import TIER_COMPILED

    if not is_general_compilable(node):
        return None, None
    result = compile_term(node)
    digest = component_digest(node, result.free)
    iface = ComponentInterface(name="<tiering>", ty=result.ty,
                               imports=result.free, digest=digest)
    store.put(digest, StoredComponent(iface, result.wrapped),
              meta={"tier": TIER_COMPILED, "type": str(result.ty)})
    report, was_cached = cached_validation(
        store, digest, result,
        fuel=policy.validate_fuel, seed=policy.validate_seed)
    if not report.get("ok"):
        raise FunTALError(
            f"translation validation refuted the compiled artifact: "
            f"{report.get('failure')}")
    if not was_cached and OBS.enabled:
        OBS.metrics.inc("tiering.validate.performed")
    return TIER_COMPILED, digest


def run_promotion(job) -> Dict[str, Any]:
    """Execute a ``promote`` job; returns the receipt envelope.

    Output shape: ``{"digest", "receipt", "receipt_cached"}`` --
    ``receipt_cached`` is True when a verified receipt already covered
    the digest and no validation work ran.
    """
    from repro.link.store import ArtifactStore
    from repro.serve.executor import _resolve_program

    policy = active_policy()
    digest = program_digest(job.source, job.example)
    store = ArtifactStore(job.options.store or policy.store)
    book = ReceiptBook(store, policy.key)

    with OBS.span("tiering.promote", "tiering", digest=digest):
        cached = book.get(digest)
        if cached is not None:
            return {"digest": digest, "receipt": cached,
                    "receipt_cached": True}

        node, is_component = _resolve_program(job)

        # Gate 1: static typing.  Adversarial components stop here.
        from repro.ft.typecheck import check_ft_component, check_ft_expr
        if is_component:
            from repro.surface.parser import parse_ttype
            from repro.tal.syntax import NIL_STACK, QEnd

            result_ty = parse_ttype(job.options.result_type)
            check_ft_component(node, q=QEnd(result_ty, NIL_STACK))
        else:
            check_ft_expr(node)

        # Gate 2 (expressions the compiler covers): compile + validate.
        compile_tier = artifact = None
        if not is_component:
            compile_tier, artifact = _compile_and_validate(
                node, store, policy)

        # Gate 3: whole-program differential, ref (profiled) vs fast.
        fuel = job.options.fuel
        ref_answer, ref_steps, t_blocks = _profiled_reference_run(
            node, is_component, fuel)
        fast_answer, fast_steps = _fast_run(node, is_component, fuel)
        if (ref_answer, ref_steps) != (fast_answer, fast_steps):
            raise FunTALError(
                f"tier divergence for {digest}: ref "
                f"({ref_answer!r}, {ref_steps} steps) != fast "
                f"({fast_answer!r}, {fast_steps} steps)")

        payload = {
            "digest": digest,
            "kind": "component" if is_component else "expression",
            "t_blocks": t_blocks,
            "compile_tier": compile_tier,
            "artifact": artifact,
            "jit_threshold": policy.tal_jit_threshold,
            "validated": {
                "fuel": policy.validate_fuel,
                "seed": policy.validate_seed,
                "trial_steps": ref_steps,
            },
        }
        receipt = book.put(digest, payload)
        if OBS.enabled:
            OBS.metrics.inc("tiering.promote.receipts_earned")
        return {"digest": digest, "receipt": receipt,
                "receipt_cached": False}


def apply_promotion(payload: Optional[Dict[str, Any]]) -> None:
    """Seed this process's fast tier from a receipt payload."""
    if not payload:
        return
    from repro.tal import fast

    t_blocks = payload.get("t_blocks") or ()
    if t_blocks:
        fast.promote_digests(t_blocks)
    threshold = payload.get("jit_threshold")
    if threshold is not None:
        fast.set_jit_threshold(int(threshold))

