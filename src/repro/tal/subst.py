"""Capture-avoiding type substitution over all T syntactic categories.

Instantiation of a code block ``forall[Delta].{chi; sigma} q`` replaces each
binder of ``Delta`` with an ``omega`` (a value type for ``alpha``, a stack
type for ``zeta``, or a return marker for ``eps``).  The typechecker performs
these substitutions symbolically (e.g. ``chi[sigma_0/zeta][end{...}/eps]`` in
the ``call`` rules of paper Fig 2) and the machine performs them at jump time.

A :class:`Subst` maps ``(kind, name)`` keys to omegas.  Substitution descends
through types, stack types, return markers, register-file typings, operands,
instructions, heap values, and whole components, renaming binders
(``exists``/``mu`` types, code-block ``Delta``s, ``unpack``) when they would
capture a free variable of the substitution's range.

FT-only instructions (``import``, ``protect``) participate via the handler
registries :func:`register_simple_instr` and :func:`register_binding_instr`,
populated by :mod:`repro.ft.syntax` -- pure-T code never sees them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, FrozenSet, Optional, Set, Tuple, Union

from repro.caching import InternTable, LRUCache
from repro.tal.syntax import (
    Aop, Balloc, Bnz, Call, CodeType, Component, Delta, DeltaBind, Fold, Halt,
    HCode, HeapValType, HeapValue, HTuple, InstrSeq, Instruction, Jmp,
    KIND_ALPHA, KIND_EPS, KIND_ZETA, Ld, Loc, Mv, Operand, Pack, QEnd, QEps,
    QIdx, QOut, QReg, Ralloc, RegFileTy, RegOp, Ret, RetMarker, Salloc,
    Sfree, Sld, Sst, St, StackTy, TalType, TBox, Terminator, TExists, TInt,
    TRec, TRef, TupleTy, TUnit, TVar, TyApp, TypeMemo, UnfoldI, Unpack, WInt,
    WLoc, WUnit, intern_ty,
)

__all__ = [
    "Omega", "Subst", "subst_ty", "subst_psi", "subst_stack", "subst_chi",
    "subst_q", "subst_operand", "subst_instr", "subst_instr_seq",
    "subst_heap_value", "subst_component", "free_type_vars",
    "register_simple_instr", "register_binding_instr", "fresh_name",
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

_FTV_INSTR_HOOKS: Dict[type, Callable] = {}


def free_type_vars(x) -> Set[VarKey]:
    """Free ``(kind, name)`` type variables of any T syntactic object
    (memoized on types, see :class:`repro.tal.syntax.TypeMemo`)."""
    if not isinstance(x, TypeMemo):
        return _free_type_vars(x)
    return set(_ftv(x))


#: Equal free-variable sets are shared between the types that memoize
#: them (most mention just the same ``zeta`` and ``eps``).
_FTV_SETS = InternTable()


def _ftv(x: TypeMemo) -> FrozenSet[VarKey]:
    acc = getattr(x, "_ftv", None)   # cheaper than a caught miss
    if acc is None:
        acc = _FTV_SETS.canon(frozenset(_free_type_vars(x)))
        object.__setattr__(x, "_ftv", acc)
    return acc


def _free_type_vars(x) -> Set[VarKey]:
    if isinstance(x, TVar):
        return {(KIND_ALPHA, x.name)}
    if isinstance(x, (TUnit, TInt)):
        return set()
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
    if isinstance(x, (QReg, QIdx, QOut)):
        return set()
    if isinstance(x, QEnd):
        return free_type_vars(x.ty) | free_type_vars(x.sigma)
    if isinstance(x, (WUnit, WInt, WLoc, RegOp)):
        return set()
    if isinstance(x, Pack):
        return (free_type_vars(x.hidden) | free_type_vars(x.body)
                | free_type_vars(x.as_ty))
    if isinstance(x, Fold):
        return free_type_vars(x.as_ty) | free_type_vars(x.body)
    if isinstance(x, TyApp):
        return free_type_vars(x.body) | _union(
            free_type_vars(o) for o in x.insts)
    if isinstance(x, InstrSeq):
        return _ftv_instr_seq(x)
    if isinstance(x, Instruction):
        return _ftv_instruction(x)
    if isinstance(x, Terminator):
        return _ftv_terminator(x)
    if isinstance(x, HTuple):
        return _union(free_type_vars(w) for w in x.words)
    if isinstance(x, HCode):
        bound = {(b.kind, b.name) for b in x.delta}
        inner = (free_type_vars(x.chi) | free_type_vars(x.sigma)
                 | free_type_vars(x.q) | free_type_vars(x.instrs))
        return inner - bound
    if isinstance(x, Component):
        acc = free_type_vars(x.instrs)
        for _, h in x.heap:
            acc |= free_type_vars(h)
        return acc
    raise TypeError(f"free_type_vars: unsupported {type(x).__name__}")


def _union(parts) -> Set[VarKey]:
    acc: Set[VarKey] = set()
    for p in parts:
        acc |= p
    return acc


def _ftv_instruction(i: Instruction) -> Set[VarKey]:
    hook = _FTV_INSTR_HOOKS.get(type(i))
    if hook is not None:
        return hook(i)
    if isinstance(i, Aop):
        return free_type_vars(i.u)
    if isinstance(i, (Bnz,)):
        return free_type_vars(i.u)
    if isinstance(i, (Ld, St, Ralloc, Balloc, Salloc, Sfree, Sld, Sst)):
        return set()
    if isinstance(i, Mv):
        return free_type_vars(i.u)
    if isinstance(i, Unpack):
        # alpha scopes over the *rest of the sequence*, not over i.u.
        return free_type_vars(i.u)
    if isinstance(i, UnfoldI):
        return free_type_vars(i.u)
    raise TypeError(f"free_type_vars: unknown instruction {type(i).__name__}")


def _ftv_terminator(t: Terminator) -> Set[VarKey]:
    if isinstance(t, Jmp):
        return free_type_vars(t.u)
    if isinstance(t, Call):
        return (free_type_vars(t.u) | free_type_vars(t.sigma)
                | free_type_vars(t.q))
    if isinstance(t, Ret):
        return set()
    if isinstance(t, Halt):
        return free_type_vars(t.ty) | free_type_vars(t.sigma)
    raise TypeError(f"free_type_vars: unknown terminator {type(t).__name__}")


def _ftv_instr_seq(iseq: InstrSeq) -> Set[VarKey]:
    if not iseq.instrs:
        return _ftv_terminator(iseq.term)
    head, rest = iseq.instrs[0], iseq.rest
    acc = _ftv_instruction(head)
    rest_fvs = _ftv_instr_seq(rest)
    binder = binding_of(head)
    if binder is not None:
        rest_fvs = rest_fvs - {binder}
    return acc | rest_fvs


_BINDING_OF_HOOKS: Dict[type, Callable] = {}


def binding_of(i: Instruction) -> Optional[VarKey]:
    """The type variable (if any) that ``i`` binds in the rest of its sequence."""
    hook = _BINDING_OF_HOOKS.get(type(i))
    if hook is not None:
        return hook(i)
    if isinstance(i, Unpack):
        return (KIND_ALPHA, i.alpha)
    return None


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


def subst_omega(omega: Omega, s: Subst) -> Omega:
    if isinstance(omega, TalType):
        return subst_ty(omega, s)
    if isinstance(omega, StackTy):
        return subst_stack(omega, s)
    if isinstance(omega, RetMarker):
        return subst_q(omega, s)
    raise TypeError(f"subst_omega: unsupported {type(omega).__name__}")


def subst_operand(u: Operand, s: Subst) -> Operand:
    if s.is_empty():
        return u
    if isinstance(u, (WUnit, WInt, WLoc, RegOp)):
        return u
    if isinstance(u, Pack):
        return Pack(subst_ty(u.hidden, s), subst_operand(u.body, s),
                    subst_ty(u.as_ty, s))
    if isinstance(u, Fold):
        return Fold(subst_ty(u.as_ty, s), subst_operand(u.body, s))
    if isinstance(u, TyApp):
        body = subst_operand(u.body, s)
        insts = tuple(subst_omega(o, s) for o in u.insts)
        if body is u.body and all(a is b for a, b in zip(insts, u.insts)):
            return u
        return TyApp(body, insts)
    raise TypeError(f"subst_operand: unsupported {type(u).__name__}")


# FT instruction hooks: simple (no binding) and binding (scopes over rest).
_SIMPLE_INSTR_HOOKS: Dict[type, Callable] = {}
_BINDING_INSTR_HOOKS: Dict[type, Callable] = {}


def register_simple_instr(cls: type, subst_fn: Callable, ftv_fn: Callable) -> None:
    """Register substitution/ftv for a non-binding FT instruction class."""
    _SIMPLE_INSTR_HOOKS[cls] = subst_fn
    _FTV_INSTR_HOOKS[cls] = ftv_fn


def register_binding_instr(cls: type, subst_fn: Callable, ftv_fn: Callable,
                           binding_fn: Callable) -> None:
    """Register an FT instruction that binds a type variable in the rest of
    its sequence (``protect``).  ``subst_fn(instr, rest, s)`` must return a
    ``(new_instr, new_rest)`` pair and is responsible for recursing into
    ``rest`` via :func:`subst_instr_seq`."""
    _BINDING_INSTR_HOOKS[cls] = subst_fn
    _FTV_INSTR_HOOKS[cls] = ftv_fn
    _BINDING_OF_HOOKS[cls] = binding_fn


def subst_instr(i: Instruction, s: Subst) -> Instruction:
    """Substitute in a single non-binding instruction.  An instruction
    the substitution does not change comes back as the same object."""
    hook = _SIMPLE_INSTR_HOOKS.get(type(i))
    if hook is not None:
        return hook(i, s)
    if isinstance(i, (Ld, St, Ralloc, Balloc, Salloc, Sfree, Sld, Sst)):
        return i
    if not isinstance(i, (Aop, Bnz, Mv, Unpack, UnfoldI)):
        raise TypeError(
            f"subst_instr: unknown instruction {type(i).__name__}")
    u = subst_operand(i.u, s)
    if u is i.u:
        return i
    if isinstance(i, Aop):
        return Aop(i.op, i.rd, i.rs, u)
    if isinstance(i, Bnz):
        return Bnz(i.r, u)
    if isinstance(i, Mv):
        return Mv(i.rd, u)
    if isinstance(i, Unpack):
        return Unpack(i.alpha, i.rd, u)
    return UnfoldI(i.rd, u)


def subst_terminator(t: Terminator, s: Subst) -> Terminator:
    if isinstance(t, Jmp):
        u = subst_operand(t.u, s)
        return t if u is t.u else Jmp(u)
    if isinstance(t, Call):
        u, sigma, q = (subst_operand(t.u, s), subst_stack(t.sigma, s),
                       subst_q(t.q, s))
        if u is t.u and sigma is t.sigma and q is t.q:
            return t
        return Call(u, sigma, q)
    if isinstance(t, Ret):
        return t
    if isinstance(t, Halt):
        ty, sigma = subst_ty(t.ty, s), subst_stack(t.sigma, s)
        if ty is t.ty and sigma is t.sigma:
            return t
        return Halt(ty, sigma, t.r)
    raise TypeError(f"subst_terminator: unknown {type(t).__name__}")


def subst_instr_seq(iseq: InstrSeq, s: Subst) -> InstrSeq:
    """Substitute along a sequence.  A binding instruction scopes over the
    rest, which goes on under the substitution its binder leaves.  A
    sequence the substitution does not change comes back as is."""
    start, done = iseq, []
    instrs, k = iseq.instrs, 0
    while k < len(instrs) and not s.is_empty():
        head = instrs[k]
        binding_hook = _BINDING_INSTR_HOOKS.get(type(head))
        if binding_hook is not None:
            new_head, new_rest = binding_hook(
                head, InstrSeq(instrs[k + 1:], iseq.term), s)
            return InstrSeq(tuple(done) + (new_head,) + new_rest.instrs,
                            new_rest.term)
        if isinstance(head, Unpack):
            new_u = subst_operand(head.u, s)
            alpha, iseq, s = _avoid_capture_in_rest(
                KIND_ALPHA, head.alpha, InstrSeq(instrs[k + 1:], iseq.term),
                s)
            done.append(Unpack(alpha, head.rd, new_u))
            instrs, k = iseq.instrs, 0
            continue
        done.append(subst_instr(head, s))
        k += 1
    term = iseq.term if s.is_empty() else subst_terminator(iseq.term, s)
    if (iseq is start and term is iseq.term
            and all(a is b for a, b in zip(done, instrs))):
        return iseq
    return InstrSeq(tuple(done) + instrs[k:], term)


def _avoid_capture_in_rest(kind: str, name: str, rest: InstrSeq, s: Subst):
    """Handle a sequence-scoped binder: the binder shadows its own name in
    ``s`` and is renamed when ``s``'s range would capture it.

    Returns ``(binder_name, rest, substitution_to_apply_to_rest)``.
    """
    key = (kind, name)
    s2 = s.without([key])
    if key in s2.range_free_vars():
        fresh = fresh_name(name)
        omega: Omega
        if kind == KIND_ALPHA:
            omega = TVar(fresh)
        elif kind == KIND_ZETA:
            omega = StackTy((), fresh)
        else:
            omega = QEps(fresh)
        rest = subst_instr_seq(rest, Subst.single(kind, name, omega))
        return fresh, rest, s2
    return name, rest, s2


def subst_heap_value(h: HeapValue, s: Subst) -> HeapValue:
    if s.is_empty():
        return h
    if isinstance(h, HTuple):
        return HTuple(tuple(subst_operand(w, s) for w in h.words))  # type: ignore[arg-type]
    if isinstance(h, HCode):
        delta, s2 = _freshen_delta(h.delta, s)
        ren = _delta_renaming(h.delta, delta)
        chi = subst_chi(subst_chi(h.chi, ren), s2)
        sigma = subst_stack(subst_stack(h.sigma, ren), s2)
        q = subst_q(subst_q(h.q, ren), s2)
        instrs = subst_instr_seq(subst_instr_seq(h.instrs, ren), s2)
        return HCode(delta, chi, sigma, q, instrs)
    raise TypeError(f"subst_heap_value: unsupported {type(h).__name__}")


def subst_component(e: Component, s: Subst) -> Component:
    if s.is_empty():
        return e
    return Component(
        subst_instr_seq(e.instrs, s),
        tuple((loc, subst_heap_value(h, s)) for loc, h in e.heap))


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
        expected = {KIND_ALPHA: TalType, KIND_ZETA: StackTy,
                    KIND_EPS: RetMarker}[b.kind]
        if not isinstance(omega, expected):
            raise TypeError(
                f"instantiating {b.kind} {b.name} requires a "
                f"{expected.__name__}, got {omega}")
        if _names_var(omega) != b.name:
            mapping[(b.kind, b.name)] = omega
    return Subst(mapping)


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

#: Memo for block instantiation, keyed ``(id(block), omegas)`` and
#: storing ``(block, result)``.  Keying on identity skips the O(size)
#: structural hash of a whole code block per jump; storing the block
#: itself both pins its id against reuse after garbage collection and
#: lets the lookup validate the hit with an ``is`` check.
#: The pinning is also a cost: entries for blocks that die with their
#: run (the wrapper blocks boundary translation allocates) hold them
#: until evicted.  Loaded blocks are shared across runs (one entry per
#: instantiation), so 1024 entries hold a warm working set -- about 700
#: on ``boundary-run`` -- while keeping that dead tail short.
_BLOCK_CACHE = LRUCache(1024, metric_prefix="tal.subst.cache.block")


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
    key = (id(h), omegas)
    hit = _BLOCK_CACHE.get(key)
    if hit is not None and hit[0] is h:
        return hit[1]
    s = delta_subst(h.delta, omegas)
    remaining = h.delta[len(omegas):]
    result = HCode(remaining, subst_chi(h.chi, s), subst_stack(h.sigma, s),
                   subst_q(h.q, s), subst_instr_seq(h.instrs, s))
    _BLOCK_CACHE.put(key, (h, result))
    return result


def clear_subst_caches() -> None:
    """Drop every substitution/instantiation memo (tests, benchmarks)."""
    _TY_CACHE.clear()
    _CTYPE_CACHE.clear()
    _BLOCK_CACHE.clear()


def subst_cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/eviction stats of the three memos, by counter family."""
    return {
        "tal.subst.cache.ty": _TY_CACHE.stats(),
        "tal.subst.cache.ctype": _CTYPE_CACHE.stats(),
        "tal.subst.cache.block": _BLOCK_CACHE.stats(),
    }
