"""Abstract syntax of F, the functional language of FunTAL (paper Fig 5).

F is a simply-typed call-by-value functional language with iso-recursive
types, conditional branching on zero, n-ary functions, tuples, and base
values ``unit`` and ``int``::

    Type  tau ::= alpha | unit | int | (tau, ...) -> tau' | mu alpha. tau | <tau, ...>
    Expr  e   ::= x | () | n | e p e | if0 e e e | lam (x:tau, ...). e | e e...
                | fold[mu alpha.tau] e | unfold e | <e, ...> | pi_i(e)
    where p ::= + | - | *

All nodes are immutable (frozen dataclasses) with structural equality, and
every node pretty-prints via ``str()`` in the concrete syntax accepted by
:mod:`repro.surface.parser`.

The multi-language FT (paper Fig 6) extends these categories with boundary
terms and stack-modifying lambdas; those constructors live in
:mod:`repro.ft.syntax` and subclass :class:`FExpr` / :class:`FType` so that
pure-F code never needs to know about them.

The term traversals here walk the F/FT grammar of :mod:`repro.walk`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Tuple

from repro import walk
from repro.caching import InternTable, PicklableSlots, intern_singleton

__all__ = [
    "FType", "FTVar", "FUnit", "FInt", "FArrow", "FRec", "FTupleT",
    "FExpr", "Var", "UnitE", "IntE", "BinOp", "If0", "Lam", "App",
    "Fold", "Unfold", "TupleE", "Proj",
    "ftype_equal", "subst_ftype", "free_tvars", "fresh_tvar",
    "fresh_tvar_mark", "advance_fresh_tvar",
    "fresh_var_mark", "advance_fresh_var",
    "register_ftype_hooks", "intern_ftype",
    "subst_expr", "free_vars", "is_value", "BINOPS",
]

BINOPS = ("+", "-", "*")

_fresh_counter = itertools.count()


def fresh_tvar(base: str = "a") -> str:
    """Return a globally fresh type-variable name derived from ``base``."""
    stem = base.rstrip("0123456789'") or "a"
    return f"{stem}%{next(_fresh_counter)}"


def fresh_tvar_mark() -> int:
    """Current position of the fresh type-variable counter (checkpoints)."""
    global _fresh_counter
    mark = next(_fresh_counter)
    _fresh_counter = itertools.count(mark)
    return mark


def advance_fresh_tvar(mark: int) -> None:
    """Ensure future fresh type variables are numbered >= ``mark``."""
    global _fresh_counter
    if mark > fresh_tvar_mark():
        _fresh_counter = itertools.count(mark)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class FType(PicklableSlots):
    """Base class of F types (paper Fig 5, blue ``tau``).

    Subclasses are frozen ``slots=True`` dataclasses: hashable,
    compact, and (via :class:`~repro.caching.PicklableSlots`) picklable
    on every supported Python.  :func:`intern_ftype` hash-conses them.
    """

    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class FTVar(FType):
    """A type variable ``alpha`` (bound by ``mu``)."""

    name: str

    def __str__(self) -> str:
        return self.name


@intern_singleton
@dataclass(frozen=True, slots=True)
class FUnit(FType):
    """The ``unit`` type, inhabited only by ``()``."""

    def __str__(self) -> str:
        return "unit"


@intern_singleton
@dataclass(frozen=True, slots=True)
class FInt(FType):
    """The ``int`` type of machine integers."""

    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True, slots=True)
class FArrow(FType):
    """An n-ary function type ``(tau_1, ..., tau_n) -> tau'``."""

    params: Tuple[FType, ...]
    result: FType

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))

    def __str__(self) -> str:
        args = ", ".join(str(p) for p in self.params)
        return f"({args}) -> {self.result}"


@dataclass(frozen=True, slots=True)
class FRec(FType):
    """An iso-recursive type ``mu alpha. tau``."""

    var: str
    body: FType

    def __str__(self) -> str:
        return f"mu {self.var}. {self.body}"

    def unroll(self) -> FType:
        """One unrolling: ``tau[mu alpha.tau / alpha]``."""
        return subst_ftype(self.body, self.var, self)


@dataclass(frozen=True, slots=True)
class FTupleT(FType):
    """A tuple type ``<tau_1, ..., tau_n>``."""

    items: Tuple[FType, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __str__(self) -> str:
        return "<" + ", ".join(str(t) for t in self.items) + ">"


#: Hash-cons table for F types: :func:`intern_ftype` collapses
#: structurally equal types to one canonical instance so that
#: alpha-equivalence checks can take their ``a is b`` fast path.
_FTYPE_INTERN = InternTable()


def intern_ftype(ty: FType) -> FType:
    """The canonical instance of ``ty`` (first structurally-equal type
    ever interned wins).  Purely an optimization -- interning never
    changes ``==``; it only makes ``is`` more often true."""
    return _FTYPE_INTERN.canon(ty)


# ---------------------------------------------------------------------------
# Type operations
# ---------------------------------------------------------------------------

# Extension hooks let the FT package add type forms (the stack-modifying
# arrow) without the core F module depending on it.  Each hook returns None
# when it does not apply.
_FTYPE_EQUAL_HOOKS = []
_FTYPE_SUBST_HOOKS = []
_FTYPE_FTV_HOOKS = []


def register_ftype_hooks(equal=None, subst=None, ftv=None) -> None:
    """Register traversal hooks for extended F type forms."""
    if equal is not None:
        _FTYPE_EQUAL_HOOKS.append(equal)
    if subst is not None:
        _FTYPE_SUBST_HOOKS.append(subst)
    if ftv is not None:
        _FTYPE_FTV_HOOKS.append(ftv)


def free_tvars(ty: FType) -> frozenset:
    """The free type variables of ``ty``."""
    for hook in _FTYPE_FTV_HOOKS:
        result = hook(ty)
        if result is not None:
            return result
    if isinstance(ty, FTVar):
        return frozenset({ty.name})
    if isinstance(ty, (FUnit, FInt)):
        return frozenset()
    if isinstance(ty, FArrow):
        acc = free_tvars(ty.result)
        for p in ty.params:
            acc |= free_tvars(p)
        return acc
    if isinstance(ty, FRec):
        return free_tvars(ty.body) - {ty.var}
    if isinstance(ty, FTupleT):
        acc = frozenset()
        for t in ty.items:
            acc |= free_tvars(t)
        return acc
    raise TypeError(f"not a core F type: {ty!r}")


def subst_ftype(ty: FType, var: str, replacement: FType) -> FType:
    """Capture-avoiding substitution ``ty[replacement / var]``."""
    for hook in _FTYPE_SUBST_HOOKS:
        result = hook(ty, var, replacement)
        if result is not None:
            return result
    if isinstance(ty, FTVar):
        return replacement if ty.name == var else ty
    if isinstance(ty, (FUnit, FInt)):
        return ty
    if isinstance(ty, FArrow):
        return FArrow(
            tuple(subst_ftype(p, var, replacement) for p in ty.params),
            subst_ftype(ty.result, var, replacement),
        )
    if isinstance(ty, FRec):
        if ty.var == var:
            return ty
        if ty.var in free_tvars(replacement):
            fresh = fresh_tvar(ty.var)
            renamed = subst_ftype(ty.body, ty.var, FTVar(fresh))
            return FRec(fresh, subst_ftype(renamed, var, replacement))
        return FRec(ty.var, subst_ftype(ty.body, var, replacement))
    if isinstance(ty, FTupleT):
        return FTupleT(tuple(subst_ftype(t, var, replacement) for t in ty.items))
    raise TypeError(f"not a core F type: {ty!r}")


def ftype_equal(a: FType, b: FType,
                env: Optional[Dict[str, str]] = None) -> bool:
    """Alpha-equivalence of F types.

    ``env`` maps bound variables of ``a`` to the corresponding bound
    variables of ``b``; free variables must match literally.
    """
    env = env or {}
    for hook in _FTYPE_EQUAL_HOOKS:
        result = hook(a, b, env)
        if result is not None:
            return result
    if isinstance(a, FTVar) and isinstance(b, FTVar):
        return env.get(a.name, a.name) == b.name
    if isinstance(a, FUnit) and isinstance(b, FUnit):
        return True
    if isinstance(a, FInt) and isinstance(b, FInt):
        return True
    if isinstance(a, FArrow) and isinstance(b, FArrow):
        if len(a.params) != len(b.params):
            return False
        return (all(ftype_equal(pa, pb, env)
                    for pa, pb in zip(a.params, b.params))
                and ftype_equal(a.result, b.result, env))
    if isinstance(a, FRec) and isinstance(b, FRec):
        inner = dict(env)
        inner[a.var] = b.var
        return ftype_equal(a.body, b.body, inner)
    if isinstance(a, FTupleT) and isinstance(b, FTupleT):
        if len(a.items) != len(b.items):
            return False
        return all(ftype_equal(ia, ib, env) for ia, ib in zip(a.items, b.items))
    return False


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class FExpr(PicklableSlots):
    """Base class of F expressions (paper Fig 5, blue ``e``)."""

    __slots__ = ()

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Var(FExpr):
    """A term variable ``x``."""

    name: str

    def __str__(self) -> str:
        return self.name


@intern_singleton
@dataclass(frozen=True, slots=True)
class UnitE(FExpr):
    """The unit value ``()``."""

    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True, slots=True)
class IntE(FExpr):
    """An integer literal ``n``."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class BinOp(FExpr):
    """A primitive arithmetic operation ``e p e`` with ``p in {+, -, *}``."""

    op: str
    left: FExpr
    right: FExpr

    def __post_init__(self) -> None:
        if self.op not in BINOPS:
            raise ValueError(f"unknown primitive operation {self.op!r}")

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True, slots=True)
class If0(FExpr):
    """Conditional ``if0 e e_then e_else`` branching on whether ``e`` is 0."""

    cond: FExpr
    then: FExpr
    els: FExpr

    def __str__(self) -> str:
        return f"if0 {self.cond} {{{self.then}}} {{{self.els}}}"


@dataclass(frozen=True, slots=True)
class Lam(FExpr):
    """An n-ary lambda ``lam (x1:tau1, ..., xn:taun). e``.

    The paper writes unary ``lam (x:tau).e`` but types n-ary application
    ``t t1 ... tn`` against ``(tau_1 ... tau_n) -> tau'``; we represent the
    n-ary binder directly.
    """

    params: Tuple[Tuple[str, FType], ...]
    body: FExpr

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(tuple(p) for p in self.params))

    def __str__(self) -> str:
        binder = ", ".join(f"{x}: {t}" for x, t in self.params)
        return f"lam ({binder}). {self.body}"


@dataclass(frozen=True, slots=True)
class App(FExpr):
    """An application ``t t1 ... tn`` of a function to all its arguments."""

    fn: FExpr
    args: Tuple[FExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    def __str__(self) -> str:
        args = " ".join(f"({a})" for a in self.args)
        return f"({self.fn}) {args}" if args else f"({self.fn}) ()"


@dataclass(frozen=True, slots=True)
class Fold(FExpr):
    """``fold[mu alpha.tau] e`` -- introduce an iso-recursive type."""

    ann: FType
    body: FExpr

    def __str__(self) -> str:
        return f"fold[{self.ann}] ({self.body})"


@dataclass(frozen=True, slots=True)
class Unfold(FExpr):
    """``unfold e`` -- eliminate an iso-recursive type."""

    body: FExpr

    def __str__(self) -> str:
        return f"unfold ({self.body})"


@dataclass(frozen=True, slots=True)
class TupleE(FExpr):
    """A tuple ``<e_1, ..., e_n>``."""

    items: Tuple[FExpr, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __str__(self) -> str:
        return "<" + ", ".join(str(e) for e in self.items) + ">"


@dataclass(frozen=True, slots=True)
class Proj(FExpr):
    """Projection ``pi_i(e)`` of the i-th tuple field (0-indexed)."""

    index: int
    body: FExpr

    def __str__(self) -> str:
        return f"pi{self.index}({self.body})"


# ---------------------------------------------------------------------------
# Expression operations
# ---------------------------------------------------------------------------

# Extension value classes (e.g. the FT lump values) register here.
_EXTRA_VALUE_CLASSES: list = []


def register_value_class(cls: type) -> None:
    """Register an extension expression class whose instances are values."""
    _EXTRA_VALUE_CLASSES.append(cls)


def is_value(e: FExpr) -> bool:
    """Is ``e`` an F value (paper Fig 5, ``v``)?

    FT boundary values are handled by :mod:`repro.ft.machine`; from pure F's
    point of view stack-modifying lambdas are also values (they subclass
    :class:`Lam`), as are registered extension values (lumps).
    """
    if isinstance(e, (UnitE, IntE, Lam)):
        return True
    if isinstance(e, Fold):
        return is_value(e.body)
    if isinstance(e, TupleE):
        return all(is_value(x) for x in e.items)
    return any(isinstance(e, cls) for cls in _EXTRA_VALUE_CLASSES)


def free_vars(e: FExpr) -> frozenset:
    """The free term variables of ``e``, crossing boundaries into their
    ``import`` payloads (lumps are closed)."""
    return walk.fold(e, post=_fv_post, cross=walk.F_TERMS, unknown=_not_ft)


def _not_ft(e: FExpr):
    raise TypeError(f"not an FT expression: {e!r}")


def _fv_post(e: FExpr, results) -> frozenset:
    if not results:
        return frozenset([e.name] if isinstance(e, Var) else ())
    acc = results[0].union(*results[1:])
    if isinstance(e, Lam):
        return acc.difference([x for x, _ in e.params])
    return acc


_fresh_var_counter = itertools.count()


def _fresh_var(base: str) -> str:
    stem = base.split("%")[0] or "x"
    return f"{stem}%{next(_fresh_var_counter)}"


def fresh_var_mark() -> int:
    """Current position of the fresh term-variable counter (checkpoints)."""
    global _fresh_var_counter
    mark = next(_fresh_var_counter)
    _fresh_var_counter = itertools.count(mark)
    return mark


def advance_fresh_var(mark: int) -> None:
    """Ensure future fresh term variables are numbered >= ``mark``."""
    global _fresh_var_counter
    if mark > fresh_var_mark():
        _fresh_var_counter = itertools.count(mark)


def subst_expr(e: FExpr, values: Dict[str, FExpr]) -> FExpr:
    """Capture-avoiding simultaneous substitution: ``e`` with each free
    variable named in ``values`` replaced by its value, in one pass,
    crossing boundaries into their ``import`` payloads; extension values
    (lumps, CEK closures) are closed.  A lambda renames a parameter that
    a value's free variable would be captured by, and one that shadows
    some of the names starts a pass without them over its body, so the
    passes nest at most once per name.  Untouched subterms are shared."""
    if not values:
        return e
    fvs = None

    def pre(x: FExpr):
        nonlocal fvs
        if isinstance(x, Var):
            return values.get(x.name, x)
        if not isinstance(x, Lam):
            return None
        names = {name for name, _ in x.params}
        inner = values if names.isdisjoint(values) else {
            k: v for k, v in values.items() if k not in names}
        if not inner:
            return x
        if fvs is None:
            fvs = frozenset().union(*map(free_vars, values.values()))
        body, params = x.body, x.params
        renamed = not fvs.isdisjoint(names)
        if renamed:                     # rename what would be captured
            params = []
            for name, ty in x.params:
                if name in fvs:
                    fresh = _fresh_var(name)
                    body = subst_expr(body, {name: Var(fresh)})
                    name = fresh
                params.append((name, ty))
            params = tuple(params)
        if inner is values:
            return walk.Descend(replace(x, params=params, body=body)) \
                if renamed else None
        body = subst_expr(body, inner)
        return replace(x, params=params, body=body) \
            if renamed or body is not x.body else x

    return walk.fold(e, pre, cross=walk.F_TERMS, unknown=_closed_value)


def _closed_value(e: FExpr) -> FExpr:
    if any(isinstance(e, cls) for cls in _EXTRA_VALUE_CLASSES):
        return e
    raise TypeError(f"not an F expression: {e!r}")


def iter_subexprs(e: FExpr) -> Iterator[FExpr]:
    """Yield ``e`` and all its F sub-expressions (pre-order); a
    boundary's component is not entered."""
    return walk.preorder(e)
