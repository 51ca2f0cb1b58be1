"""Profile-guided adaptive tiering (ROADMAP item 4).

One :class:`~repro.tiering.policy.TieringPolicy` owns every promotion
knob (thresholds, hysteresis, budgets) and one
:class:`~repro.tiering.controller.TieringController` drives a state
machine per content digest::

    cold -> profiling -> promoting -> promoted
                              |            |
                              v            v
                          demoted     quarantined

Hot-site detection comes from :mod:`repro.obs.profile` step counts,
promotion work runs as background ``promote`` jobs in serve workers,
and the proof that a digest's fast tiers agree with the reference
semantics is persisted as a signed receipt in the PR 7
:class:`~repro.link.store.ArtifactStore` -- validated once, trusted at
every worker and process that shares the store.  The PR 3 differential
safety net plus PR 8 digest quarantine remain the always-on demotion
backstop.

Import surface: :mod:`repro.tiering.policy` (knobs and the JIT's
scope), :mod:`repro.tiering.controller` (state machine),
:mod:`repro.tiering.receipts` (signed receipt book),
:mod:`repro.tiering.promote` (worker-side promotion + validation),
:mod:`repro.tiering.coordinator` (pool-side scheduling glue).
"""

from repro.tiering.policy import (
    TIERING_MODES,
    TieringPolicy,
    active_policy,
    set_active_policy,
)
from repro.tiering.controller import (
    COLD,
    DEMOTED,
    PROFILING,
    PROMOTED,
    PROMOTING,
    QUARANTINED,
    STATES,
    TieringController,
)
from repro.tiering.receipts import ReceiptBook, sign_receipt, verify_receipt

__all__ = [
    "TIERING_MODES", "TieringPolicy", "active_policy", "set_active_policy",
    "COLD", "PROFILING", "PROMOTING", "PROMOTED", "DEMOTED", "QUARANTINED",
    "STATES", "TieringController",
    "ReceiptBook", "sign_receipt", "verify_receipt",
]
