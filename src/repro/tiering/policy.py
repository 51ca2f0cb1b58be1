"""The tiering policy: every promotion knob in one audited place.

Thresholds for the fast T tier's template JIT, promotion hysteresis,
validation budgets, and the JIT's scope all come from one
:class:`TieringPolicy`.  Precedence is ``env < config < cli``
(:meth:`TieringPolicy.resolve`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple

#: Recognized ``--tiering`` / ``FUNTAL_TIERING`` modes.  ``off`` keeps
#: historical behavior (nothing promotes unless asked explicitly),
#: ``auto`` promotes digests the profiler proves hot, ``aggressive``
#: divides the promotion threshold by ten and widens the JIT's scope to
#: every closed lambda.
TIERING_MODES: Tuple[str, ...] = ("off", "auto", "aggressive")

_TRUE = ("1", "true", "yes", "on")


def _csv(raw: str) -> Tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


@dataclass(frozen=True)
class TieringPolicy:
    """Thresholds, hysteresis, and budgets for adaptive tiering.

    Frozen so a policy handed to a :class:`~repro.serve.pool.WorkerPool`
    cannot drift under it; derive variants with
    :func:`dataclasses.replace` / :meth:`with_overrides`.
    """

    #: One of :data:`TIERING_MODES`.
    mode: str = "off"
    #: Cumulative interpreted steps a digest must accrue before it is
    #: scheduled for promotion (``aggressive`` divides this by 10).
    promote_threshold: int = 50_000
    #: Per-block hot counter consulted by the fast TAL tier's template
    #: JIT.
    tal_jit_threshold: int = 16
    #: Digests pre-promoted at startup.
    tal_promote: Tuple[str, ...] = ()
    #: Fuel for per-artifact translation validation trials.
    validate_fuel: int = 30_000
    #: Seed for validation trials (recorded in receipts).
    validate_seed: int = 0
    #: Root directory for the receipt/artifact store; ``None`` uses
    #: :func:`repro.link.store.default_store_root`.
    store: Optional[str] = None
    #: HMAC key for receipt signing.  Receipts are a trust cache, not a
    #: security boundary -- the key keeps honest processes from
    #: mistaking a truncated or hand-edited file for a proof.
    key: str = "funtal-tiering"
    #: Maximum background promotions in flight per controller.
    max_inflight_promotions: int = 2
    #: Failed promotions tolerated before the digest is demoted for
    #: good (hysteresis: below this it returns to ``profiling``).
    demote_after: int = 1

    def __post_init__(self) -> None:
        if self.mode not in TIERING_MODES:
            raise ValueError(
                f"tiering mode must be one of {TIERING_MODES}, "
                f"got {self.mode!r}")
        if self.promote_threshold < 1:
            raise ValueError("promote_threshold must be >= 1")
        if self.tal_jit_threshold < 1:
            raise ValueError("tal_jit_threshold must be >= 1")
        if self.max_inflight_promotions < 1:
            raise ValueError("max_inflight_promotions must be >= 1")
        if self.demote_after < 1:
            raise ValueError("demote_after must be >= 1")

    # -- derived knobs -------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def effective_threshold(self) -> int:
        """Promotion threshold after mode hysteresis."""
        if self.mode == "aggressive":
            return max(1, self.promote_threshold // 10)
        return self.promote_threshold

    @property
    def wide_jit(self) -> bool:
        """Does the inline JIT compile every closed lambda, not just
        first-order arithmetic ones?"""
        return self.mode == "aggressive"

    # -- construction --------------------------------------------------

    #: env var -> (field, parser).  The audited source of truth for the
    #: environment surface; tests iterate it.
    ENV_FIELDS: ClassVar[Mapping[str, Tuple[str, Any]]] = {
        "FUNTAL_TIERING": ("mode", str),
        "FUNTAL_TIERING_THRESHOLD": ("promote_threshold", int),
        "FUNTAL_TIERING_TAL_JIT_THRESHOLD": ("tal_jit_threshold", int),
        "FUNTAL_TIERING_PROMOTE": ("tal_promote", _csv),
        "FUNTAL_TIERING_VALIDATE_FUEL": ("validate_fuel", int),
        "FUNTAL_TIERING_STORE": ("store", str),
        "FUNTAL_TIERING_KEY": ("key", str),
    }

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None,
                 ) -> "TieringPolicy":
        env = os.environ if environ is None else environ
        values: Dict[str, Any] = {}
        for var, (target, parse) in cls.ENV_FIELDS.items():
            raw = env.get(var)
            if raw is None:
                continue
            try:
                values[target] = parse(raw)
            except ValueError as err:
                raise ValueError(f"bad {var}={raw!r}: {err}") from None
        return cls(**values)

    @classmethod
    def resolve(cls, environ: Optional[Mapping[str, str]] = None,
                config: Optional[Mapping[str, Any]] = None,
                cli: Optional[Mapping[str, Any]] = None) -> "TieringPolicy":
        """Build a policy with documented precedence: env < config < cli.

        ``config`` and ``cli`` map field names to overrides; ``None``
        values are ignored so callers can pass argparse output as-is.
        """
        policy = cls.from_env(environ)
        for layer in (config, cli):
            if not layer:
                continue
            overrides = {k: v for k, v in layer.items() if v is not None}
            if overrides:
                policy = replace(policy, **overrides)
        return policy

    def with_overrides(self, **overrides: Any) -> "TieringPolicy":
        return replace(self, **{k: v for k, v in overrides.items()
                                if v is not None})

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


# -- process-wide active policy ---------------------------------------

_ACTIVE: Optional[TieringPolicy] = None


def set_active_policy(policy: Optional[TieringPolicy]) -> None:
    """Install ``policy`` process-wide; ``None`` reverts to env-derived."""
    global _ACTIVE
    _ACTIVE = policy


def active_policy() -> TieringPolicy:
    """The policy in force: the installed one, else freshly env-derived.

    Deliberately *not* cached when env-derived so tests (and the fast
    tier's ``set_jit_threshold(None)`` re-read contract) observe
    environment changes.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    return TieringPolicy.from_env()

