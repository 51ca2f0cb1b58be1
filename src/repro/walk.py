"""One walk over FT terms and types.

The terms of F (paper Fig 5) and of T (Fig 1), and FT's boundary, stack
lambda, ``import`` and ``protect`` (Figs 6-7), are written down once, in
:data:`GRAMMAR`, with where each holds sub-terms, types, binders and
labels; so are the types of both languages (:data:`TYPE_GRAMMAR`), with where
each holds sub-types, type variables and binders.  The grammar names
classes by module path, so every syntax module can use this one.
:func:`preorder` and :func:`fold` keep an explicit stack: no nesting
depth and no sequence length reaches the recursion limit.  A walk
crosses between the languages (a boundary's component, an import's
payload) not at all (:data:`STAY`), everywhere (:data:`ALL`), or only as
far as F terms (:data:`F_TERMS`: T terms that hold no ``import`` are
skipped).  Each caller says what a class outside the grammar means.

On types the walk's children are the sub-types (an F type's T types
among them).  Three folds serve both languages: free type variables
(:func:`free_keys`), capture-avoiding substitution (:func:`subst`) and
binders renamed by depth (:func:`canonical`); :func:`alpha_equal`, the
one alpha-equivalence, walks two types in step.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter, is_
from typing import Callable, Iterator, NamedTuple, Optional

from repro.caching import InternTable

#: Field kinds.  Sub-terms: one, a tuple, a tuple whose binders scope
#: over the later fields (a sequence), ``(label, term)`` heap cells, a
#: term of the other language (a component, an import's payload).
TERM, TERMS, SEQ, CELLS, EMBED = "term", "terms", "seq", "cells", "embed"
#: Types: ``(name, F type)`` binders, an F type (it may embed T types),
#: a T type (value or stack type, marker, register typing), a tuple of T
#: types, a boundary's stack effect (:data:`TYPED`).  Binders: a Delta
#: over the node's other fields, a type variable (of the T kind in
#: :data:`REST_KIND`) over the rest of the sequence.  Labels, and data.
PARAMS, FTYPE, TTYPE, TTYPES, DELTA = (
    "params", "ftype", "ttype", "ttypes", "delta")
BINDS, REST_ALPHA, REST_ZETA = "binds", "rest alpha", "rest zeta"
LABEL, DATA = "label", "data"
TYPED = frozenset({PARAMS, FTYPE, TTYPE, TTYPES, DELTA})
LABELLED = frozenset({LABEL, CELLS})
REST_KIND = {REST_ALPHA: "alpha", REST_ZETA: "zeta"}
#: Type fields: a sub-type, a tuple of them, ``(register, type)`` pairs.
#: An occurrence of a type variable of each kind (F's, T's alpha and
#: eps); a stack's tail, a zeta or None (nil), where a stack substituted
#: for the zeta is appended.  A name bound over the node's other fields
#: (``mu``'s, ``exists``'s); a code type binds a Delta (:data:`BINDS`).
TYPE, TYPES, REGS = "type", "types", "regs"
F_VAR, ALPHA_VAR, EPS_VAR, ZETA_TAIL = (
    "F var", "alpha var", "eps var", "zeta tail")
F_BIND, ALPHA_BIND = "binds F var", "binds alpha"
#: The kind of variable each occurrence and binder is of: T's, as
#: :mod:`repro.tal.syntax` names them, and F's (``falpha``).
F_KIND = "falpha"
VAR_KIND = {F_VAR: F_KIND, ALPHA_VAR: "alpha", EPS_VAR: "eps",
            ZETA_TAIL: "zeta"}
BIND_KIND = {F_BIND: F_KIND, ALPHA_BIND: "alpha"}

#: How far a walk crosses between the languages (see the module doc).
STAY, ALL, F_TERMS = "stay", "all", "f terms"

_F, _FT, _T = "repro.f.syntax.", "repro.ft.syntax.", "repro.tal.syntax."

#: Every FT term class: ``(field, kind)`` for each constructor field.
GRAMMAR = {
    # F terms, FT's F forms, and lumps
    _F + "Var": (("name", DATA),),
    _F + "UnitE": (),
    _F + "IntE": (("value", DATA),),
    _F + "BinOp": (("op", DATA), ("left", TERM), ("right", TERM)),
    _F + "If0": (("cond", TERM), ("then", TERM), ("els", TERM)),
    _F + "Lam": (("params", PARAMS), ("body", TERM)),
    _F + "App": (("fn", TERM), ("args", TERMS)),
    _F + "Fold": (("ann", FTYPE), ("body", TERM)),
    _F + "Unfold": (("body", TERM),),
    _F + "TupleE": (("items", TERMS),),
    _F + "Proj": (("index", DATA), ("body", TERM)),
    _FT + "StackLam": (("params", PARAMS), ("body", TERM),
                       ("phi_in", TTYPES), ("phi_out", TTYPES)),
    _FT + "Boundary": (("ty", FTYPE), ("comp", EMBED), ("delta", DELTA)),
    "repro.ft.lump.LumpVal": (("loc", LABEL),),
    # T's operands, instructions (FT's ``import`` and ``protect`` among
    # them), terminators, sequences, heap values and components
    _T + "WUnit": (),
    _T + "WInt": (("value", DATA),),
    _T + "WLoc": (("loc", LABEL),),
    _T + "RegOp": (("reg", DATA),),
    _T + "Pack": (("hidden", TTYPE), ("body", TERM), ("as_ty", TTYPE)),
    _T + "Fold": (("as_ty", TTYPE), ("body", TERM)),
    _T + "TyApp": (("body", TERM), ("insts", TTYPES)),
    _T + "Aop": (("op", DATA), ("rd", DATA), ("rs", DATA), ("u", TERM)),
    _T + "Bnz": (("r", DATA), ("u", TERM)),
    _T + "Ld": (("rd", DATA), ("rs", DATA), ("index", DATA)),
    _T + "St": (("rd", DATA), ("index", DATA), ("rs", DATA)),
    _T + "Ralloc": (("rd", DATA), ("n", DATA)),
    _T + "Balloc": (("rd", DATA), ("n", DATA)),
    _T + "Mv": (("rd", DATA), ("u", TERM)),
    _T + "Salloc": (("n", DATA),),
    _T + "Sfree": (("n", DATA),),
    _T + "Sld": (("rd", DATA), ("index", DATA)),
    _T + "Sst": (("index", DATA), ("rs", DATA)),
    _T + "Unpack": (("alpha", REST_ALPHA), ("rd", DATA), ("u", TERM)),
    _T + "UnfoldI": (("rd", DATA), ("u", TERM)),
    _FT + "Import": (("rd", DATA), ("protected", TTYPE), ("ty", FTYPE),
                     ("expr", EMBED)),
    _FT + "Protect": (("phi", TTYPES), ("zeta", REST_ZETA)),
    _T + "Jmp": (("u", TERM),),
    _T + "Call": (("u", TERM), ("sigma", TTYPE), ("q", TTYPE)),
    _T + "Ret": (("r", DATA), ("rr", DATA)),
    _T + "Halt": (("ty", TTYPE), ("sigma", TTYPE), ("r", DATA)),
    _T + "InstrSeq": (("instrs", SEQ), ("term", TERM)),
    _T + "HTuple": (("words", TERMS),),
    _T + "HCode": (("delta", BINDS), ("chi", TTYPE), ("sigma", TTYPE),
                   ("q", TTYPE), ("instrs", TERM)),
    _T + "Component": (("instrs", TERM), ("heap", CELLS)),
}

#: Every F and T type class, in the same form.
TYPE_GRAMMAR = {
    # F types, FT's stack-modifying arrow (its prefixes are T types) and
    # lump type (its fields are)
    _F + "FTVar": (("name", F_VAR),),
    _F + "FUnit": (),
    _F + "FInt": (),
    _F + "FArrow": (("params", TYPES), ("result", TYPE)),
    _F + "FRec": (("var", F_BIND), ("body", TYPE)),
    _F + "FTupleT": (("items", TYPES),),
    _FT + "FStackArrow": (("params", TYPES), ("result", TYPE),
                          ("phi_in", TYPES), ("phi_out", TYPES)),
    "repro.ft.lump.FLump": (("items", TYPES),),
    # T's value and heap-value types, stack and register-file typings,
    # and return markers
    _T + "TVar": (("name", ALPHA_VAR),),
    _T + "TUnit": (),
    _T + "TInt": (),
    _T + "TExists": (("var", ALPHA_BIND), ("body", TYPE)),
    _T + "TRec": (("var", ALPHA_BIND), ("body", TYPE)),
    _T + "TRef": (("items", TYPES),),
    _T + "TBox": (("psi", TYPE),),
    _T + "TupleTy": (("items", TYPES),),
    _T + "CodeType": (("delta", BINDS), ("chi", TYPE), ("sigma", TYPE),
                      ("q", TYPE)),
    _T + "StackTy": (("prefix", TYPES), ("tail", ZETA_TAIL)),
    _T + "RegFileTy": (("entries", REGS),),
    _T + "QReg": (("reg", DATA),),
    _T + "QIdx": (("index", DATA),),
    _T + "QEps": (("name", EPS_VAR),),
    _T + "QEnd": (("ty", TYPE), ("sigma", TYPE)),
    _T + "QOut": (),
}
GRAMMAR.update(TYPE_GRAMMAR)

#: The T classes an F term can be reached through: an ``import`` (a
#: *port*: it holds the F term) and what holds one (a *conduit*).  To an
#: :data:`F_TERMS` walk a conduit's children are the ports inside it.
CARRIERS = frozenset({_T + "InstrSeq", _T + "HCode", _T + "Component",
                      _FT + "Import"})


class Descend(NamedTuple):
    """A :func:`fold` ``pre`` answer: walk ``node`` in place of the term."""
    node: object


def _key(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


class _Info(NamedTuple):
    """What the grammar says of one class's own fields."""
    typed: tuple                # ``(field, kind)`` of its F and T types
    labelled: tuple             # ``(field, kind)`` of its labels
    binders: Optional[str]      # the Delta it binds
    rest: Optional[tuple]       # ``(field, T kind)`` of its sequence binder
    sequence: Optional[str]     # the terms it holds in sequence
    typeless: bool              # no type, binder or sub-term
    subterms: tuple             # ``(field, kind)`` of its sub-terms/types
    role: Optional[str]         # _PORT or _CONDUIT, for F_TERMS walks
    spec: Optional[tuple]       # its grammar entry
    var: Optional[tuple]        # ``(field, kind)`` of its type variable
    bound: Optional[tuple]      # ``(field, kind)`` of the name it binds
    binds: bool                 # binds a type variable over its fields
    bare: bool                  # a type that is just a variable
    a_type: bool                # an F or T type
    t_type: bool                # a T type
    memo: bool                  # keeps its free variables (``_ftv``)


_INFO: dict = {}


def _info(cls: type) -> _Info:
    """The grammar's word on ``cls``; hot paths inline the hit."""
    info = _INFO.get(cls)
    if info is None:
        key = _key(cls)
        spec = GRAMMAR.get(key, ())
        first = lambda kinds: next((n for n, k in spec if k in kinds), None)
        var = next(((n, VAR_KIND[k]) for n, k in spec if k in VAR_KIND),
                   None)
        bound = next(((n, BIND_KIND[k]) for n, k in spec if k in BIND_KIND),
                     None)
        info = _INFO[cls] = _Info(
            tuple((n, k) for n, k in spec if k in TYPED),
            tuple((n, k) for n, k in spec if k in LABELLED),
            first({BINDS}),
            next(((n, REST_KIND[k]) for n, k in spec if k in REST_KIND),
                 None),
            first({SEQ}),
            key in GRAMMAR and all(k is DATA or k is LABEL for _, k in spec),
            tuple((n, k) for n, k in spec if k in _SPLIT),
            None if key not in CARRIERS else _PORT if any(
                k is EMBED for _, k in spec) else _CONDUIT,
            GRAMMAR.get(key), var, bound,
            bound is not None or first({BINDS}) is not None,
            var is not None and len(spec) == 1,
            key in TYPE_GRAMMAR, key in TYPE_GRAMMAR and key.startswith(_T),
            hasattr(cls, "_ftv"))
    return info


def _shared(old, new: list):
    """``old`` when ``new`` holds exactly its items, else ``new``."""
    for a, b in zip(old, new):
        if a is not b:
            return tuple(new)
    return old


def replace(obj, field: str, value):
    """``obj`` with ``field`` set to ``value`` (``obj`` if it already is)."""
    return obj if getattr(obj, field) is value else _with(obj, {field: value})


def _cells(old: tuple, values: list) -> tuple:
    """``old``'s ``(label, term)`` cells holding ``values``."""
    return _shared(old, [c if c[1] is h else (c[0], h)
                         for c, h in zip(old, values)])


#: Per sub-term kind: a field's children, and the field refilled from
#: new ones.
_SPLIT = {
    TERM: lambda v: (v,),
    TERMS: tuple,
    CELLS: lambda v: tuple([h for _, h in v]),
}
_REFILL = {
    TERM: lambda v, it: next(it),
    TERMS: lambda v, it: _shared(v, [next(it) for _ in v]),
    CELLS: lambda v, it: _cells(v, [next(it) for _ in v]),
}
_SPLIT[SEQ], _REFILL[SEQ] = _SPLIT[TERMS], _REFILL[TERMS]
#: A type's sub-types split and refill as a term's sub-terms do.
_AS_TERMS = {TYPE: TERM, TYPES: TERMS, REGS: CELLS}
_SPLIT.update({k: _SPLIT[like] for k, like in _AS_TERMS.items()})
_REFILL.update({k: _REFILL[like] for k, like in _AS_TERMS.items()})
_PORT, _CONDUIT = "port", "conduit"


def _ports(e) -> tuple:
    """The ports inside conduit ``e``, in order (kept in its ``_ports``
    memo slot if it has one, as a component does)."""
    found = getattr(e, "_ports", None)
    if found is None:
        found = tuple(_scan(e, []))
        if hasattr(type(e), "_ports"):
            object.__setattr__(e, "_ports", found)
    return found


def _scan(e, found: list) -> list:
    """``found`` with the ports inside conduit ``e`` appended in order."""
    for name, kind in (_INFO.get(e.__class__) or _info(e.__class__)).subterms:
        for x in _SPLIT[kind](getattr(e, name)):
            role = (_INFO.get(x.__class__) or _info(x.__class__)).role
            if role is _PORT:
                found.append(x)
            elif role is _CONDUIT:
                _scan(x, found)
    return found


def _with_ports(e, it):
    """Conduit ``e`` with its ports drawn in order from ``it``."""
    new = {}
    for name, kind in _info(e.__class__).subterms:
        old = getattr(e, name)
        items = [next(it) if role is _PORT else _with_ports(x, it)
                 if role is _CONDUIT else x for x in _SPLIT[kind](old)
                 for role in [_info(x.__class__).role]]
        v = items[0] if kind is TERM else _cells(old, items) \
            if kind is CELLS else _shared(old, items)
        if v is not old:
            new[name] = v
    return _with(e, new)


def _make_shape(cls: type, cross: str):
    """``(make, children)`` of a term class (None if unknown) for a walk
    crossing as ``cross``: ``make(e, new)`` is ``e`` with the children
    ``new``, and ``children`` is None for a leaf class."""
    key = _key(cls)
    spec = GRAMMAR.get(key)
    if spec is None:
        return None
    if cross is F_TERMS and _info(cls).role is _CONDUIT:
        return (lambda e, new: _with_ports(e, iter(new))), _ports
    kinds = dict(_AS_TERMS, **{EMBED: DATA if cross is STAY else TERM})
    spec = tuple((n, kinds.get(k, k)) for n, k in spec)
    parts = [(n, k) for n, k in spec if k in _SPLIT]
    if not parts:
        return None, None
    get = attrgetter(*[n for n, _ in parts])
    kinds = tuple(k for _, k in parts)
    make = _maker(cls, spec)
    if all(k is TERM for k in kinds):       # the common cases, in C
        return make, (get if len(parts) > 1 else lambda e: (get(e),))
    if kinds in ((TERMS,), (SEQ,)):
        return make, get
    if kinds in ((SEQ, TERM), (TERMS, TERM)):   # a sequence, an arrow
        return make, lambda e: get(e)[0] + (get(e)[1],)
    if kinds == (TERM, TERMS):              # an application
        return make, lambda e: (get(e)[0],) + get(e)[1]
    return make, lambda e: tuple(
        x for n, k in parts for x in _SPLIT[k](getattr(e, n)))


def _maker(cls: type, spec: tuple) -> Callable:
    """``make(e, new)``: the ``cls`` term ``e`` with its sub-term fields
    refilled, in order, from the children ``new``."""
    plan = [(n, _REFILL.get(k)) for n, k in spec]

    def make(e, new):
        it = iter(new)
        return cls(*[getattr(e, n) if refill is None
                     else refill(getattr(e, n), it) for n, refill in plan])
    return make


_MISS = object()


class _Table:
    """One kind of walk's view of each class: ``entries`` maps it to
    ``(make, children, whether pre sees it)``, or None outside the
    grammar; ``quiet`` holds the leaves ``pre`` does not see."""

    __slots__ = ("cross", "on", "entries", "quiet")

    def __init__(self, cross: str, on: Optional[frozenset]):
        self.cross, self.on, self.entries, self.quiet = cross, on, {}, set()

    def entry(self, cls: type):
        entry = self.entries.get(cls, _MISS)
        if entry is _MISS:
            shape = _make_shape(cls, self.cross)
            seen = self.on is None or shape is not None and any(
                k in self.on for _, k in GRAMMAR[_key(cls)])
            entry = self.entries[cls] = shape and (*shape, seen)
            if shape and shape[1] is None and not seen:
                self.quiet.add(cls)
        return entry


_TABLES: dict = {}


def _table(cross: str, on: Optional[frozenset]) -> _Table:
    table = _TABLES.get((cross, on))
    if table is None:
        if cross not in (STAY, ALL, F_TERMS):
            raise ValueError(f"unknown crossing {cross!r}")
        table = _TABLES[cross, on] = _Table(cross, on)
    return table


#: The entry of a class for a walk that crosses everywhere and shows
#: ``pre`` every term (what :func:`children` and :func:`rebuild` see).
_ALL_ENTRY = _table(ALL, None).entry


def _rebuild(e, make: Callable, kids: tuple, new: list):
    """``e`` with children ``new`` for ``kids``, or ``e`` if the same."""
    return e if all(map(is_, kids, new)) else make(e, new)


def rebuild(e, results: list):
    """``e`` with its sub-terms (:func:`children`) replaced by
    ``results``, the same object if none changed."""
    make, kids = _ALL_ENTRY(type(e))[:2]
    return e if kids is None else _rebuild(e, make, kids(e), results)


def children(e) -> tuple:
    """The sub-terms of ``e`` in order, crossing into the other
    language."""
    entry = _ALL_ENTRY(type(e))
    return entry[1](e) if entry and entry[1] else ()


@lru_cache(maxsize=None)
def unsupported(what: str) -> Callable:
    """An ``unknown`` answer for a walk that takes grammar terms only."""
    def unknown(x):
        raise TypeError(f"{what}: unsupported {type(x).__name__}")
    return unknown


def preorder(e, cross: str = STAY,
             unknown: Optional[Callable] = None) -> Iterator:
    """Every sub-term of ``e`` in pre-order, left to right; an unknown
    term goes to ``unknown`` (which may raise) and counts as a leaf."""
    seen: list = []         # ``append`` answers None: descend everywhere
    fold(e, seen.append, lambda term, results: None, cross, unknown)
    return iter(seen)


def fold(e, pre: Optional[Callable] = None, post: Optional[Callable] = None,
         cross: str = STAY, unknown: Optional[Callable] = None,
         on: Optional[frozenset] = None):
    """Fold ``e`` bottom-up.  ``pre(term)`` returns None (descend), a
    :class:`Descend` (descend into its node instead) or the term's
    result; with ``on``, a set of field kinds, it sees only the terms
    with a field of one of them.  ``post(term, results)`` combines the
    children's results; by default the term is rebuilt, the same object
    if no child changed (a leaf ``pre`` does not see is then its own
    result, and is not visited).  ``unknown(term)`` answers for (or
    raises on) an unknown term."""
    table = _table(cross, on)
    get, entry_of, quiet = table.entries.get, table.entry, table.quiet
    rebuilds = post is None
    todo: list = [e]        # terms, and frames whose kids are done
    out: list = []
    push, pop, emit = todo.append, todo.pop, out.append
    while todo:
        node = pop()
        cls = node.__class__
        if cls is tuple:                # (make, term, kids): combine
            make, node, kids = node
            n = len(kids)
            new = out[-n:]
            del out[-n:]
            emit(_rebuild(node, make, kids, new) if rebuilds
                 else post(node, new))
            continue
        if rebuilds and cls in quiet:
            emit(node)
            continue
        entry = get(cls, _MISS)
        if entry is _MISS:
            entry = entry_of(cls)
        if pre is not None and (entry[2] if entry else on is None):
            answer = pre(node)
            if answer is not None:
                if answer.__class__ is not Descend:
                    emit(answer)
                    continue
                node = answer.node
                entry = get(node.__class__) or entry_of(node.__class__)
        kids = entry and entry[1] and entry[1](node)
        if kids:
            if rebuilds and quiet.issuperset(map(type, kids)):
                emit(node)          # a rebuild would give the node back
                continue
            push((entry[0], node, kids))
            todo.extend(reversed(kids))
        elif entry is None:
            emit(node if unknown is None else unknown(node))
        else:
            emit(node if rebuilds else post(node, ()))
    return out[0]


def _with(e, new: dict):
    """``e`` with the fields in ``new`` replaced (``e`` if none are)."""
    return type(e)(*[new[n] if n in new else getattr(e, n)
                     for n in type(e).__dataclass_fields__]) if new else e


def map_types(e, ftype: Callable, ttype: Callable):
    """``e`` with its own fields' F and T types mapped through ``ftype``
    and ``ttype`` in field order; ``e`` itself if none changed."""
    new = None
    for name, kind in (_INFO.get(e.__class__) or _info(e.__class__)).typed:
        old = getattr(e, name)
        v = ttype(old) if kind is TTYPE else _map_type(kind, old, ftype, ttype)
        if v is not old:
            if new is None:
                new = {}
            new[name] = v
    return e if new is None else _with(e, new)


def _map_type(kind: str, v, ftype: Callable, ttype: Callable):
    if kind is FTYPE:
        return ftype(v)
    if kind is TTYPES:
        return _shared(v, [ttype(t) for t in v])
    if kind is PARAMS:
        return _shared(v, [p if t is p[1] else (p[0], t)
                           for p, t in zip(v, [ftype(t) for _, t in v])])
    return replace(v, "pushes", _map_type(TTYPES, v.pushes, ftype, ttype))


def map_labels(e, label: Callable):
    """``e`` with its own heap labels (a label value's, a component's
    cells') mapped through ``label``; ``e`` itself if none changed."""
    fields = (_INFO.get(e.__class__) or _info(e.__class__)).labelled
    if not fields:
        return e
    new = {}
    for name, kind in fields:
        old = getattr(e, name)
        if kind is LABEL:
            v = label(old)
        else:
            v = _shared(old, [c if label(c[0]) is c[0] else (label(c[0]), c[1])
                              for c in old])
        if v is not old:
            new[name] = v
    return _with(e, new)


def flat(e) -> bool:
    """Whether ``e`` is a term whose sub-terms have no type, binder or
    sub-term: a walk over it has only ``e`` itself to look at."""
    entry = _ALL_ENTRY(type(e))
    return entry is not None and (
        entry[1] is None or all(map(typeless, entry[1](e))))


def typeless(e) -> bool:
    """Whether ``e`` is a term with no type, binder or sub-term."""
    return (_INFO.get(e.__class__) or _info(e.__class__)).typeless


def bound_keys(e) -> list:
    """``(kind, name)`` of each type variable ``e`` binds: its own
    Delta's or name's, and those its sequence's terms bind over the
    terms after them."""
    info = _INFO.get(e.__class__) or _info(e.__class__)
    keys = [] if info.binders is None else [
        (b.kind, b.name) for b in getattr(e, info.binders)]
    if info.bound is not None:
        keys.append((info.bound[1], getattr(e, info.bound[0])))
    if info.sequence is not None:
        known = _INFO.get
        for term in getattr(e, info.sequence):
            rest = (known(term.__class__) or _info(term.__class__)).rest
            if rest is not None:
                keys.append((rest[1], getattr(term, rest[0])))
    return keys


def binders(e) -> Optional[tuple]:
    """The Delta ``e`` binds over its own fields (a code block's), or
    None."""
    field = _info(e.__class__).binders
    return None if field is None else getattr(e, field)


def rest_binder(e) -> Optional[tuple]:
    """``(kind, name)`` of the type variable ``e`` binds over the rest of
    its sequence (``unpack``'s alpha, ``protect``'s zeta), or None."""
    rest = (_INFO.get(e.__class__) or _info(e.__class__)).rest
    return None if rest is None else (rest[1], getattr(e, rest[0]))


def rebind(e, binders):
    """``e`` binding ``binders`` instead: a Delta in place of its own, or
    a name in place of its sequence binder's or its own."""
    info = _info(e.__class__)
    return replace(e, info.binders or (info.rest or info.bound)[0], binders)


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

_NO_KEYS: frozenset = frozenset()
#: Equal free-variable sets are shared between the types that keep them
#: (most mention just the same ``zeta`` and ``eps``).
_KEY_SETS = InternTable()
_NOT_A_TYPE = unsupported("type walk")


def is_type(x) -> bool:
    """Whether ``x`` is an F or T type."""
    return (_INFO.get(x.__class__) or _info(x.__class__)).a_type


def free_keys(ty) -> frozenset:
    """The free ``(kind, name)`` type variables of the F or T type
    ``ty`` (kinds as in :data:`VAR_KIND`).  A type with an ``_ftv`` slot
    keeps its set there, so a later query, or a walk reaching it, does
    not walk it again."""
    keys = _keys_pre(ty)
    return keys if keys is not None else fold(
        ty, _keys_pre, _keys_post, unknown=_NOT_A_TYPE)


def _keys_pre(node):
    keys = getattr(node, "_ftv", None)
    if keys is not None:
        return keys
    info = _INFO.get(node.__class__) or _info(node.__class__)
    if info.typeless:
        return _NO_KEYS
    if info.bare:
        return frozenset(((info.var[1], getattr(node, info.var[0])),))
    return None


def _keys_post(node, results) -> frozenset:
    """The sub-types' free variables and the node's own (a stack's
    tail), less those it binds."""
    info = _INFO.get(node.__class__) or _info(node.__class__)
    keys = set().union(*results)
    if info.var is not None:
        name = getattr(node, info.var[0])
        if name is not None:
            keys.add((info.var[1], name))
    if info.binds:
        keys.difference_update(bound_keys(node))
    if not info.memo:
        return frozenset(keys)
    keys = _KEY_SETS.canon(frozenset(keys))
    object.__setattr__(node, "_ftv", keys)
    return keys


def var_key(ty) -> Optional[tuple]:
    """``(kind, name)`` of the type variable the type ``ty`` consists of
    (a stack: of just its tail zeta), or None."""
    info = _INFO.get(ty.__class__) or _info(ty.__class__)
    if info.var is None:
        return None
    name = getattr(ty, info.var[0])
    if name is None or not info.bare and any(
            getattr(ty, n) for n, _ in info.subterms):
        return None
    return info.var[1], name


def subst(ty, mapping: dict, fresh: Callable[[str], str]):
    """Capture-avoiding substitution: the F or T type ``ty`` with each
    free variable whose ``(kind, name)`` ``mapping`` holds replaced by
    its type (a stack's tail zeta by its stack, appended).  A binder
    hides its keys from its scope, and is renamed to ``fresh(name)``
    where the types substituted in its scope mention it free.  What the
    substitution does not change comes back as the same object, and is
    not entered where that shows without a walk: a type whose ``_ftv``
    misses every key, a T type under a substitution of F variables."""
    return _rename(ty, mapping, fresh) if mapping else ty


def canonical(ty):
    """``ty`` with each binder renamed by its depth, ``%0`` the
    outermost (each name of a Delta counts one; no parsed or fresh name
    has this form): alpha-equivalent types come out equal, and hash
    alike."""
    return _rename(ty, {}, None)


def _rename(ty, mapping: dict, fresh: Optional[Callable]):
    """The fold behind :func:`subst` and (``fresh`` None: every binder
    renamed by depth) :func:`canonical`.  Each binder opens a scope:
    what it substitutes, what it renames, its depth, the names the
    binder itself takes, and the free variables of what it substitutes
    (None until a binder asks)."""
    skip_t = fresh is not None and all(k[0] == F_KIND for k in mapping)
    scopes = [[mapping, {}, 0, None, None]]

    def pre(node):
        info = _INFO.get(node.__class__) or _info(node.__class__)
        if info.typeless:
            return node
        scope = scopes[-1]
        sub, ren, depth = scope[0], scope[1], scope[2]
        if info.bare:
            key = info.var[1], getattr(node, info.var[0])
            name = ren.get(key)
            return sub.get(key, node) if name is None else \
                replace(node, info.var[0], name)
        if fresh is not None:
            if skip_t and info.t_type:  # F variables occur in no T type
                return node
            if info.memo:
                keys = free_keys(node)
                if sub.keys().isdisjoint(keys) and ren.keys().isdisjoint(keys):
                    return node
        if not info.binds:
            return None
        keys = bound_keys(node)
        inner = sub if sub.keys().isdisjoint(keys) else {
            k: v for k, v in sub.items() if k not in keys}
        if not ren.keys().isdisjoint(keys):
            ren = {k: v for k, v in ren.items() if k not in keys}
        danger = scope[4]
        if fresh is None:
            own = {k: f"%{depth + i}" for i, k in enumerate(keys)}
        elif not inner and not ren:
            return node
        else:
            if danger is None or inner is not sub:
                danger = set().union(*map(free_keys, inner.values()))
                if inner is sub:
                    scope[4] = danger
            own = {k: fresh(k[1]) for k in keys if k in danger}
        scopes.append([inner, {**ren, **own} if own else ren,
                       depth + len(keys), own, danger])
        return None

    def post(node, results):
        new = rebuild(node, results)
        info = _INFO.get(node.__class__) or _info(node.__class__)
        if info.var is not None:            # a stack's tail
            key = info.var[1], getattr(new, info.var[0])
            sub, ren = scopes[-1][0], scopes[-1][1]
            if key in ren:
                new = replace(new, info.var[0], ren[key])
            elif key in sub:
                new = new.with_tail(sub[key])
        if info.binds:
            own = scopes.pop()[3]
            if own:
                new = _rebound(new, info, own)
        return new

    return fold(ty, pre, post, unknown=_NOT_A_TYPE)


def _rebound(node, info: _Info, own: dict):
    """``node`` with its binders named as ``own`` says."""
    if info.bound is not None:
        field, kind = info.bound
        return replace(node, field, own[kind, getattr(node, field)])
    return replace(node, info.binders, tuple(
        b if (b.kind, b.name) not in own
        else replace(b, "name", own[b.kind, b.name])
        for b in getattr(node, info.binders)))


_NO_SCOPE: dict = {}


def alpha_equal(a, b) -> bool:
    """Whether the F or T types ``a`` and ``b`` are alpha-equivalent:
    equal but for the names of bound variables.  The two are walked in
    step, each side mapping the variables its binders bind to their
    depth, so the check is symmetric: a variable bound on one side
    matches only one bound at the same depth on the other, a free one
    only the same free one.  While both sides bind the same names they
    share one map, and a sub-type both share is equal without a walk."""
    if a is b:
        return True
    todo = [(a, b, _NO_SCOPE, _NO_SCOPE, 0)]
    pop, push = todo.pop, todo.append
    while todo:
        x, y, left, right, depth = pop()
        if x is y and left is right:
            continue
        cls = x.__class__
        if cls is not y.__class__:
            return False
        spec = (_INFO.get(cls) or _info(cls)).spec
        if spec is None:                    # outside the grammar
            if x != y:
                return False
            continue
        for name, kind in spec:
            u, v = getattr(x, name), getattr(y, name)
            if kind is TYPE:
                if u is not v or left is not right:
                    push((u, v, left, right, depth))
            elif kind is TYPES or kind is REGS:
                if len(u) != len(v):
                    return False
                if kind is REGS:
                    if any(p[0] != q[0] for p, q in zip(u, v)):
                        return False
                    u, v = [t for _, t in u], [t for _, t in v]
                todo.extend([(p, q, left, right, depth)
                             for p, q in zip(u, v)
                             if p is not q or left is not right])
            elif kind in VAR_KIND:
                var = VAR_KIND[kind]
                i, j = left.get((var, u)), right.get((var, v))
                if i != j or i is None and u != v:
                    return False
            elif kind is BINDS or kind in BIND_KIND:
                if kind is BINDS:
                    us = [(c.kind, c.name) for c in u]
                    vs = [(c.kind, c.name) for c in v]
                else:
                    us, vs = [(BIND_KIND[kind], u)], [(BIND_KIND[kind], v)]
                if len(us) != len(vs) or any(
                        p[0] != q[0] for p, q in zip(us, vs)):
                    return False
                shared = left is right and us == vs
                left = {**left, **{k: depth + i for i, k in enumerate(us)}}
                right = left if shared else {
                    **right, **{k: depth + i for i, k in enumerate(vs)}}
                depth += len(us)
            elif u != v:
                return False
    return True
