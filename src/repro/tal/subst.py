"""Capture-avoiding type substitution over all T syntactic categories.

Instantiation of a code block ``forall[Delta].{chi; sigma} q`` replaces each
binder of ``Delta`` with an ``omega`` (a value type for ``alpha``, a stack
type for ``zeta``, or a return marker for ``eps``).  The typechecker performs
these substitutions symbolically (e.g. ``chi[sigma_0/zeta][end{...}/eps]`` in
the ``call`` rules of paper Fig 2) and the machine performs them at jump time.

A :class:`Subst` maps ``(kind, name)`` keys to omegas.  On types,
substitution and free variables are written per type form
(:func:`subst_ty`, :func:`subst_stack`, ...).  On terms they are folds
over the one FT grammar of :mod:`repro.walk`, which says where a term
holds types and what it binds: :func:`subst_term` and
:func:`free_type_vars` take any FT term -- an operand, an instruction
(``import`` and ``protect`` included), a sequence, a heap value, a
component, or an F expression, whose boundaries and stack lambdas hold
T types.  A code block's Delta scopes over the block; ``unpack``'s alpha
and ``protect``'s zeta scope over the rest of their sequence.  Binders
shadow the substitution and are renamed when its range would capture
them.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, NamedTuple, Optional, Set, Tuple, Union

from repro import walk
from repro.caching import InternTable, LRUCache
from repro.obs.events import OBS
from repro.tal.syntax import (
    CodeType, Delta, DeltaBind, HCode, HeapValType, KIND_ALPHA, KIND_EPS,
    KIND_ZETA, QEnd, QEps, QIdx, QOut, QReg, RegFileTy, RetMarker, StackTy,
    TalType, TBox, TExists, TInt, TRec, TRef, TupleTy, TUnit, TVar,
    TypeMemo, intern_ty,
)

__all__ = [
    "Omega", "Subst", "subst_ty", "subst_psi", "subst_stack", "subst_chi",
    "subst_q", "subst_omega", "subst_term", "free_type_vars", "fresh_name",
    "check_omega", "register_ftype_map",
    "instantiate_code_type", "instantiate_code_block", "clear_subst_caches",
    "subst_cache_stats",
]

Omega = Union[TalType, StackTy, RetMarker]
VarKey = Tuple[str, str]  # (kind, name)

_fresh = itertools.count()


def fresh_name(base: str) -> str:
    """A globally fresh type-variable name (any kind)."""
    stem = base.split("%")[0] or "v"
    return f"{stem}%{next(_fresh)}"


class Subst:
    """An immutable finite map from ``(kind, name)`` to omegas."""

    __slots__ = ("mapping", "_key")

    def __init__(self, mapping: Optional[Dict[VarKey, Omega]] = None):
        self.mapping: Dict[VarKey, Omega] = dict(mapping or {})
        self._key: Optional[tuple] = None
        for (kind, _), omega in self.mapping.items():
            expected = {KIND_ALPHA: TalType, KIND_ZETA: StackTy,
                        KIND_EPS: RetMarker}.get(kind)
            if expected is not None and not isinstance(omega, expected):
                raise TypeError(
                    f"substitution for kind {kind!r} must be "
                    f"{expected.__name__}, got {omega!r}")

    def key(self) -> tuple:
        """A hashable structural identity for cache keys (computed once;
        all omegas are frozen hashable nodes)."""
        if self._key is None:
            self._key = tuple(sorted(self.mapping.items(),
                                     key=lambda kv: kv[0]))
        return self._key

    @classmethod
    def single(cls, kind: str, name: str, omega: Omega) -> "Subst":
        return cls({(kind, name): omega})

    def get(self, kind: str, name: str) -> Optional[Omega]:
        return self.mapping.get((kind, name))

    def without(self, keys) -> "Subst":
        trimmed = {k: v for k, v in self.mapping.items() if k not in set(keys)}
        return Subst(trimmed)

    def is_empty(self) -> bool:
        return not self.mapping

    def range_free_vars(self) -> Set[VarKey]:
        acc: Set[VarKey] = set()
        for omega in self.mapping.values():
            acc |= free_type_vars(omega)
        return acc

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.mapping.items())
        return f"Subst({{{inner}}})"


# ---------------------------------------------------------------------------
# Free type variables
# ---------------------------------------------------------------------------

#: The T type classes; everything else is a term.
_TYPE_CLASSES = (TalType, StackTy, RegFileTy, RetMarker)


def free_type_vars(x) -> Set[VarKey]:
    """Free ``(kind, name)`` type variables of any T type or FT term
    (memoized on types, see :class:`repro.tal.syntax.TypeMemo`)."""
    if isinstance(x, TypeMemo):
        return set(_ftv(x))
    if isinstance(x, _TYPE_CLASSES):
        return _free_type_vars(x)
    return set() if walk.typeless(x) else _term_ftv(x)


#: Equal free-variable sets are shared between the types that memoize
#: them (most mention just the same ``zeta`` and ``eps``).
_FTV_SETS = InternTable()


def _ftv(x: TypeMemo) -> FrozenSet[VarKey]:
    acc = getattr(x, "_ftv", None)   # cheaper than a caught miss
    if acc is None:
        acc = _FTV_SETS.canon(frozenset(_free_type_vars(x)))
        object.__setattr__(x, "_ftv", acc)
    return acc


#: Type classes that never mention a type variable.
_CLOSED_CLASSES = frozenset({TUnit, TInt, QReg, QIdx, QOut})


def _free_type_vars(x) -> Set[VarKey]:
    if x.__class__ in _CLOSED_CLASSES:
        return set()
    if isinstance(x, TVar):
        return {(KIND_ALPHA, x.name)}
    if isinstance(x, (TExists, TRec)):
        return free_type_vars(x.body) - {(KIND_ALPHA, x.var)}
    if isinstance(x, TRef):
        return _union(free_type_vars(t) for t in x.items)
    if isinstance(x, TBox):
        return free_type_vars(x.psi)
    if isinstance(x, TupleTy):
        return _union(free_type_vars(t) for t in x.items)
    if isinstance(x, CodeType):
        bound = {(b.kind, b.name) for b in x.delta}
        inner = (free_type_vars(x.chi) | free_type_vars(x.sigma)
                 | free_type_vars(x.q))
        return inner - bound
    if isinstance(x, StackTy):
        acc = _union(free_type_vars(t) for t in x.prefix)
        if x.tail is not None:
            acc |= {(KIND_ZETA, x.tail)}
        return acc
    if isinstance(x, RegFileTy):
        return _union(free_type_vars(t) for _, t in x.items())
    if isinstance(x, QEps):
        return {(KIND_EPS, x.name)}
    if isinstance(x, QEnd):
        return free_type_vars(x.ty) | free_type_vars(x.sigma)
    raise TypeError(f"free_type_vars: unsupported {type(x).__name__}")


def _union(parts) -> Set[VarKey]:
    acc: Set[VarKey] = set()
    for p in parts:
        acc |= p
    return acc


class _Binds(NamedTuple):
    """A sequence binder's free variables, and the one it binds over the
    rest of its sequence."""
    key: VarKey
    fvs: Set[VarKey]


_NO_VARS: FrozenSet[VarKey] = frozenset()


def _term_ftv(x) -> Set[VarKey]:
    """A term's free type variables: a fold over the FT grammar."""
    out = _ftv_post(x, ()) if walk.flat(x) else walk.fold(
        x, _ftv_pre, _ftv_post, walk.ALL, _FTV_UNKNOWN)
    return out.fvs if out.__class__ is _Binds else out


_FTV_UNKNOWN = walk.unsupported("free_type_vars")


def _ftv_pre(node):
    return _NO_VARS if walk.typeless(node) else None


def _ftv_post(node, results):
    """The term's own types', its sub-terms' (each sequence binder's left
    out of the later ones), less the Delta it binds."""
    acc: Set[VarKey] = set()
    for r in reversed(results):
        if r.__class__ is _Binds:
            acc.discard(r.key)
            r = r.fvs
        acc |= r
    collect = lambda t: acc.update(free_type_vars(t)) or t   # noqa: E731
    walk.map_types(node, lambda t: _ftype_map(t, collect), collect)
    delta = walk.binders(node)
    if delta:
        acc.difference_update((b.kind, b.name) for b in delta)
    key = walk.rest_binder(node)
    return acc if key is None else _Binds(key, acc)


# The T types inside an F type (a stack-modifying arrow's, a lump's)
# are FT's: :mod:`repro.ft.syntax` registers the map over them when it
# loads.  Until then an F type holds no T type.
_ftype_map = lambda ty, f: ty   # noqa: E731


def register_ftype_map(map_ftype) -> None:
    """Install FT's ``map_ftype(ty, f)``: F type ``ty`` with the T types
    in it mapped through ``f``."""
    global _ftype_map
    _ftype_map = map_ftype


# ---------------------------------------------------------------------------
# Substitution proper
# ---------------------------------------------------------------------------

#: Missing-entry sentinel for the LRU lookups (None is a valid value).
_MISS = object()

#: Memo for :func:`subst_ty`, keyed ``(type, substitution identity)``.
#: Results are interned, so a cache hit also hands back the *identical*
#: object every time -- the ``a is b`` fast path of
#: :func:`repro.tal.equality.types_equal` then short-circuits.  Bounded:
#: a cold miss just recomputes, so eviction can never change semantics.
_TY_CACHE = LRUCache(4096, metric_prefix="tal.subst.cache.ty")


def subst_ty(ty: TalType, s: Subst) -> TalType:
    if s.is_empty() or ty.__class__ is TInt or ty.__class__ is TUnit:
        return ty   # the base types are singletons, so already interned
    key = (ty, s.key())
    hit = _TY_CACHE.get(key, _MISS)
    if hit is not _MISS:
        return hit
    result = intern_ty(_subst_ty_uncached(ty, s))
    _TY_CACHE.put(key, result)
    return result


def _subst_ty_uncached(ty: TalType, s: Subst) -> TalType:
    # Recursive positions call the cached subst_ty, so shared subterms
    # are memoized independently of their parents.
    if isinstance(ty, TVar):
        hit = s.get(KIND_ALPHA, ty.name)
        return hit if hit is not None else ty  # type: ignore[return-value]
    if isinstance(ty, (TUnit, TInt)):
        return ty
    if isinstance(ty, TExists):
        var, body, s2 = _under_alpha_binder(ty.var, ty.body, s)
        return TExists(var, subst_ty(body, s2))
    if isinstance(ty, TRec):
        var, body, s2 = _under_alpha_binder(ty.var, ty.body, s)
        return TRec(var, subst_ty(body, s2))
    if isinstance(ty, TRef):
        return TRef(tuple(subst_ty(t, s) for t in ty.items))
    if isinstance(ty, TBox):
        return TBox(subst_psi(ty.psi, s))
    raise TypeError(f"subst_ty: unsupported {type(ty).__name__}")


def _under_alpha_binder(var: str, body: TalType, s: Subst):
    key = (KIND_ALPHA, var)
    s2 = s.without([key])
    if key in s2.range_free_vars():
        fresh = fresh_name(var)
        body = subst_ty(body, Subst.single(KIND_ALPHA, var, TVar(fresh)))
        return fresh, body, s2
    return var, body, s2


def subst_psi(psi: HeapValType, s: Subst) -> HeapValType:
    if s.is_empty():
        return psi
    if isinstance(psi, TupleTy):
        return TupleTy(tuple(subst_ty(t, s) for t in psi.items))
    if isinstance(psi, CodeType):
        delta, s2 = _freshen_delta(psi.delta, s)
        ren = _delta_renaming(psi.delta, delta)
        chi = subst_chi(subst_chi(psi.chi, ren), s2)
        sigma = subst_stack(subst_stack(psi.sigma, ren), s2)
        q = subst_q(subst_q(psi.q, ren), s2)
        return CodeType(delta, chi, sigma, q)
    raise TypeError(f"subst_psi: unsupported {type(psi).__name__}")


def _freshen_delta(delta: Delta, s: Subst) -> Tuple[Delta, Subst]:
    """Drop bound keys from ``s``; rename binders that would capture."""
    bound = [(b.kind, b.name) for b in delta]
    s2 = s.without(bound)
    danger = s2.range_free_vars()
    new_delta = []
    for b in delta:
        if (b.kind, b.name) in danger:
            new_delta.append(DeltaBind(b.kind, fresh_name(b.name)))
        else:
            new_delta.append(b)
    return tuple(new_delta), s2


def _delta_renaming(old: Delta, new: Delta) -> Subst:
    mapping: Dict[VarKey, Omega] = {}
    for ob, nb in zip(old, new):
        if ob.name == nb.name:
            continue
        if ob.kind == KIND_ALPHA:
            mapping[(KIND_ALPHA, ob.name)] = TVar(nb.name)
        elif ob.kind == KIND_ZETA:
            mapping[(KIND_ZETA, ob.name)] = StackTy((), nb.name)
        elif ob.kind == KIND_EPS:
            mapping[(KIND_EPS, ob.name)] = QEps(nb.name)
    return Subst(mapping)


def subst_stack(sigma: StackTy, s: Subst) -> StackTy:
    if s.is_empty() or s.mapping.keys().isdisjoint(_ftv(sigma)):
        # A concrete stack at recursion depth n has O(n) slots; skipping
        # a substitution that cannot touch it keeps each step O(1).
        return sigma
    prefix = tuple(subst_ty(t, s) for t in sigma.prefix)
    if sigma.tail is not None:
        hit = s.get(KIND_ZETA, sigma.tail)
        if hit is not None:
            assert isinstance(hit, StackTy)
            return StackTy(prefix, sigma.tail).with_tail(hit)
    return StackTy(prefix, sigma.tail)


def subst_chi(chi: RegFileTy, s: Subst) -> RegFileTy:
    if s.is_empty():
        return chi
    return RegFileTy(tuple((r, subst_ty(t, s)) for r, t in chi.items()))


def subst_q(q: RetMarker, s: Subst) -> RetMarker:
    if s.is_empty():
        return q
    if isinstance(q, QEps):
        hit = s.get(KIND_EPS, q.name)
        return hit if hit is not None else q  # type: ignore[return-value]
    if isinstance(q, (QReg, QIdx, QOut)):
        return q
    if isinstance(q, QEnd):
        return QEnd(subst_ty(q.ty, s), subst_stack(q.sigma, s))
    raise TypeError(f"subst_q: unsupported {type(q).__name__}")


def subst_omega(omega, s: Subst):
    """Substitute in any T type: a value or stack type, a return marker
    or a register-file typing."""
    if isinstance(omega, TalType):
        return subst_ty(omega, s)
    if isinstance(omega, StackTy):
        return subst_stack(omega, s)
    if isinstance(omega, RetMarker):
        return subst_q(omega, s)
    if isinstance(omega, RegFileTy):
        return subst_chi(omega, s)
    raise TypeError(f"subst_omega: unsupported {type(omega).__name__}")


#: The bare variable of each kind a renamed binder is replaced by.
_BARE = {KIND_ALPHA: TVar, KIND_ZETA: lambda name: StackTy((), name),
         KIND_EPS: QEps}


def subst_term(x, s: Subst):
    """``x`` with ``s`` applied to every T type in it; ``x`` is any FT
    term.  A code block's Delta and a sequence binder (``unpack``'s
    alpha, ``protect``'s zeta) shadow their keys of ``s`` -- over the
    block, over the rest of the sequence -- and are renamed when the
    range of ``s`` would capture them.  A term ``s`` does not change
    comes back as the same object."""
    if s.is_empty():
        return x
    caught: Optional[Set[VarKey]] = None   # what a binder must not bind
    ttype = lambda t: subst_omega(t, s)    # noqa: E731
    ftype = lambda t: _ftype_map(t, ttype)     # noqa: E731

    def pre(node):
        nonlocal caught
        keys = walk.bound_keys(node)
        if keys:
            if caught is None:
                caught = set(s.mapping) | s.range_free_vars()
            if not caught.isdisjoint(keys):
                return _subst_scoped(node, s)
        new = walk.map_types(node, ftype, ttype)
        return None if new is node else walk.Descend(new)

    if walk.flat(x) and not walk.bound_keys(x):
        return walk.map_types(x, ftype, ttype)
    return walk.fold(x, pre, cross=walk.ALL, unknown=_SUBST_UNKNOWN,
                     on=_SCOPED)


#: The terms :func:`subst_term` looks at itself: those with types or
#: binders; the walk rebuilds the rest.
_SCOPED = walk.TYPED | {walk.BINDS, walk.SEQ}
_SUBST_UNKNOWN = walk.unsupported("subst_term")


def _subst_scoped(node, s: Subst):
    """``subst_term`` of a term with a binder that shadows or would
    capture a key of ``s``.  Its own Delta is renamed where ``s`` would
    capture it; a sequence binder, likewise, leaves the terms after it
    under ``s`` less its key."""
    delta = walk.binders(node)
    if delta is not None:
        fresh, s = _freshen_delta(delta, s)
        renaming = _delta_renaming(delta, fresh).mapping
        if renaming:
            s = Subst({**s.mapping, **renaming})
            node = walk.rebind(node, fresh)
    ttype = lambda t: subst_omega(t, s)    # noqa: E731
    node = walk.map_types(node, lambda t: _ftype_map(t, ttype), ttype)
    new = []
    for term in walk.children(node):
        out = subst_term(term, s)
        key = walk.rest_binder(term)
        if key is not None:
            s = s.without([key])
            if key in s.range_free_vars():
                fresh = fresh_name(key[1])
                s = Subst({**s.mapping, key: _BARE[key[0]](fresh)})
                out = walk.rebind(out, fresh)
        new.append(out)
    return walk.rebuild(node, new)


# ---------------------------------------------------------------------------
# Code-block instantiation (shared by typechecker and machine)
# ---------------------------------------------------------------------------

def delta_subst(delta: Delta, omegas: Tuple[Omega, ...]) -> Subst:
    """Match a prefix of ``delta`` against ``omegas``, kind-checking each.

    An omega that just names the binder it instantiates, as ``[z]`` does
    for ``forall[zeta z]``, is left out of the substitution: it is the
    identity there, so an instantiation made only of such omegas is the
    empty substitution and hands every node back unchanged."""
    if len(omegas) > len(delta):
        raise ValueError(
            f"too many instantiations: {len(omegas)} for Delta of "
            f"length {len(delta)}")
    mapping: Dict[VarKey, Omega] = {}
    for b, omega in zip(delta, omegas):
        check_omega(b, omega)
        if _names_var(omega) != b.name:
            mapping[(b.kind, b.name)] = omega
    return Subst(mapping)


#: The omega class each kind of T binder is instantiated with.
KIND_OMEGA = {KIND_ALPHA: TalType, KIND_ZETA: StackTy, KIND_EPS: RetMarker}


def check_omega(b: DeltaBind, omega: Omega) -> None:
    """Kind-check one instantiation: both T engines check here."""
    expected = KIND_OMEGA[b.kind]
    if not isinstance(omega, expected):
        raise TypeError(
            f"instantiating {b.kind} {b.name} requires a "
            f"{expected.__name__}, got {omega}")


def _names_var(omega: Omega) -> Optional[str]:
    """The variable an omega consists of, if it is a bare one."""
    cls = omega.__class__
    if cls is TVar or cls is QEps:
        return omega.name
    if cls is StackTy and not omega.prefix:
        return omega.tail
    return None


#: Memo for code-type instantiation, keyed structurally by
#: ``(code type, omegas)``: a code type memoizes its hash, and equal
#: callee types recur from program to program (every compiled function
#: of one arity has one), so a hit hands back the one instantiated node
#: whose well-formedness memo is already warm.
_CTYPE_CACHE = LRUCache(2048, metric_prefix="tal.subst.cache.ctype")

#: Block instantiations are memoized on the block itself, in the
#: ``_inst`` slot of :class:`repro.tal.syntax.CodeMemo`: ``(generation,
#: {omegas: result})``.  Living on the block skips the O(size) structural
#: hash of a whole code block per jump, and the memo dies with the block:
#: a module-level table keyed by block identity would have to pin every
#: block it served, dead or not.  Loaded blocks are shared across runs
#: (:class:`repro.tal.machine.LoadTemplate`), so the memo hits across
#: loads.  :func:`clear_subst_caches` starts a new generation, which
#: empties every block's memo at its next use.
#: Entries one block's memo holds; a full memo keeps them and refuses
#: new ones.  On the benchmark workloads a block is instantiated at one
#: omega list at most; a recursion instantiates its callee once per
#: depth, and the block lives as long as its component, so a full memo
#: keeps the shallow depths that every run repeats.
_BLOCK_MEMO_CAP = 32
_BLOCK_GEN = [0]
#: [hits, misses, evictions] of the block memos.
_BLOCK_COUNTS = [0, 0, 0]


def instantiate_code_type(ct: CodeType,
                          omegas: Tuple[Omega, ...]) -> CodeType:
    """Apply a (possibly partial, left-to-right) instantiation to ``ct``."""
    key = (ct, omegas)
    hit = _CTYPE_CACHE.get(key)
    if hit is not None:
        return hit
    s = delta_subst(ct.delta, omegas)
    remaining = ct.delta[len(omegas):]
    result = CodeType(remaining, subst_chi(ct.chi, s),
                      subst_stack(ct.sigma, s), subst_q(ct.q, s))
    _CTYPE_CACHE.put(key, result)
    return result


def instantiate_code_block(h: HCode, omegas: Tuple[Omega, ...]) -> HCode:
    """Apply an instantiation to a code block (used at jump time).

    Memoized on the block object: a later jump to the *same* block with
    the same omegas reuses the result.  The cached block is
    alpha-equivalent on every later hit -- any binders freshened during
    the first substitution keep their (bound, hence clash-free) names
    instead of being re-freshened per jump.  A component's loads reuse
    its relocated blocks (:class:`repro.tal.machine.LoadTemplate`), so
    the memo hits across loads and runs.
    """
    memo = getattr(h, "_inst", None)
    if memo is None or memo[0] != _BLOCK_GEN[0]:
        memo = (_BLOCK_GEN[0], {})
        object.__setattr__(h, "_inst", memo)
    table = memo[1]
    hit = table.get(omegas)
    _BLOCK_COUNTS[0 if hit is not None else 1] += 1
    if OBS.enabled:
        OBS.metrics.inc("tal.subst.cache.block."
                        + ("hit" if hit is not None else "miss"))
    if hit is not None:
        return hit
    s = delta_subst(h.delta, omegas)
    remaining = h.delta[len(omegas):]
    result = HCode(remaining, subst_chi(h.chi, s), subst_stack(h.sigma, s),
                   subst_q(h.q, s), subst_term(h.instrs, s))
    if len(table) < _BLOCK_MEMO_CAP:
        table[omegas] = result
    else:
        _BLOCK_COUNTS[2] += 1
    return result


def clear_subst_caches() -> None:
    """Drop every substitution/instantiation memo (tests, benchmarks)."""
    _TY_CACHE.clear()
    _CTYPE_CACHE.clear()
    _BLOCK_GEN[0] += 1


def subst_cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/eviction stats of the three memos, by counter family
    (the block memos live on the blocks, so the module holds no entry
    of theirs; their ``evictions`` counts the instantiations a full
    block memo refused)."""
    return {
        "tal.subst.cache.ty": _TY_CACHE.stats(),
        "tal.subst.cache.ctype": _CTYPE_CACHE.stats(),
        "tal.subst.cache.block": {
            "size": 0, "maxsize": _BLOCK_MEMO_CAP, "hits": _BLOCK_COUNTS[0],
            "misses": _BLOCK_COUNTS[1], "evictions": _BLOCK_COUNTS[2]},
    }
