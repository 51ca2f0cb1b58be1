"""Alpha-equivalence of T types, memoized.

Semantic type equality in T must identify types that differ only in bound
variable names -- e.g. the code types ``forall[zeta z1].{...; z1} ra`` and
``forall[zeta z2].{...; z2} ra`` -- because boundary translations and the
typechecker's symbolic instantiations generate fresh binder names freely.

The check itself is :func:`repro.walk.alpha_equal`, the one
alpha-equivalence of F and T types: it walks both types with the FT
grammar, each side naming its bound variables by depth, so it is
symmetric and a variable of one kind never aliases one of another.
:func:`types_equal` serves every T category (value, heap-value, stack and
register-file types, return markers) and memoizes its verdicts.
"""

from __future__ import annotations

from repro.caching import LRUCache
from repro.tal.syntax import TalType
from repro.walk import alpha_equal

__all__ = ["types_equal", "clear_equality_cache"]

#: Memo for alpha-equivalence verdicts on value types, keyed by the pair.
_EQ_CACHE = LRUCache(8192, metric_prefix="tal.equality.cache")


def clear_equality_cache() -> None:
    """Drop the memoized alpha-equivalence verdicts (tests, benchmarks)."""
    _EQ_CACHE.clear()


def types_equal(a, b) -> bool:
    """Alpha-equivalence of two T types of any category.

    Interned/shared nodes hit the ``a is b`` fast path; distinct value
    types are memoized structurally in a bounded LRU (sound because
    types are immutable and alpha-equivalence has no other inputs).
    Stack and register-file typings and return markers are built fresh
    at nearly every typing step, where a memo would only hash them: they
    are compared directly.
    """
    if a is b:
        return True
    if not isinstance(a, TalType):
        return alpha_equal(a, b)
    key = (a, b)
    verdict = _EQ_CACHE.get(key)
    if verdict is None:
        verdict = alpha_equal(a, b)
        _EQ_CACHE.put(key, verdict)
    return verdict
