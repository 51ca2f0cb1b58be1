"""One walk over FT terms.

F's terms (paper Fig 5), the boundary and stack lambda (Fig 6), and the
F terms a component holds as ``import`` payloads (Fig 7) are written
down once, in :data:`GRAMMAR`; it names classes by module path, so every
syntax module can use this one.  :func:`preorder` and :func:`fold` keep
an explicit stack: no nesting depth reaches the recursion limit.  Both
stop at a boundary unless ``cross`` is set; then its children are its
payloads, code blocks' (heap order) before the entry's.  Each caller
says what a class outside the grammar means.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Optional

#: Field kinds: sub-term(s), ``(name, F type)`` binders, an F type (it may
#: embed T types), T types, a stack effect, a T component, anything else.
TERM, TERMS, PARAMS, FTYPE, TTYPES, DELTA, COMP, DATA = (
    "term", "terms", "params", "ftype", "ttypes", "delta", "comp", "data")

_F, _FT = "repro.f.syntax.", "repro.ft.syntax."

#: Every FT term class: ``(field, kind)`` for each constructor field.
GRAMMAR = {
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
    _FT + "Boundary": (("ty", FTYPE), ("comp", COMP), ("delta", DELTA)),
    "repro.ft.lump.LumpVal": (("loc", DATA),),
}

#: A component's F terms: ``import`` exprs in its entry and code blocks.
IMPORT, CODE_BLOCK = (_FT[:-1], "Import"), ("repro.tal.syntax", "HCode")


class Descend(NamedTuple):
    """A :func:`fold` ``pre`` answer: walk ``node`` in place of the term."""
    node: object


def _shared(old, new: list):
    """``old`` when ``new`` holds exactly its items, else ``new``."""
    for a, b in zip(old, new):
        if a is not b:
            return tuple(new)
    return old


def _set(obj, field: str, value):
    """``obj`` with ``field`` set to ``value`` (``obj`` if it already is)."""
    if getattr(obj, field) is value:
        return obj
    return type(obj)(*[value if name == field else getattr(obj, name)
                       for name in type(obj).__dataclass_fields__])


@lru_cache(maxsize=None)
def _payload_classes() -> tuple:
    """The import and code-block classes, loaded once a boundary exists."""
    return tuple(getattr(sys.modules[m], n) for m, n in (IMPORT, CODE_BLOCK))


def _payloads(comp) -> list:
    imp, code = _payload_classes()
    seqs = [h.instrs for _, h in comp.heap if type(h) is code]
    return [i.expr for s in seqs + [comp.instrs] for i in s.instrs
            if type(i) is imp]


def _with_payloads(comp, it):
    """``comp`` with its payloads drawn from ``it``."""
    imp, code = _payload_classes()

    def seq(s):
        return _set(s, "instrs", _shared(s.instrs, [
            _set(i, "expr", next(it)) if type(i) is imp else i
            for i in s.instrs]))

    return map_component(comp, seq, lambda h: _set(
        h, "instrs", seq(h.instrs)) if type(h) is code else h)


def map_component(comp, seq: Callable, cell: Callable,
                  label: Optional[Callable] = None):
    """``comp`` with its heap cells through ``cell`` (in order), then its
    entry through ``seq``, its labels through ``label``: same if no change."""
    heap = [(loc if label is None else label(loc), cell(h))
            for loc, h in comp.heap]
    instrs = seq(comp.instrs)
    same = instrs is comp.instrs and all(
        a is c and b is d for (a, b), (c, d) in zip(heap, comp.heap))
    return comp if same else type(comp)(instrs, tuple(heap))


@lru_cache(maxsize=None)
def _shape(cls: type, cross: bool):
    """``(spec, children)`` of a term class (None if unknown); unless
    ``cross``, a component is opaque data."""
    spec = GRAMMAR.get(f"{cls.__module__}.{cls.__qualname__}")
    if spec is None:
        return None
    spec = tuple((n, DATA if k is COMP and not cross else k)
                 for n, k in spec)
    parts = [(n, k) for n, k in spec if k in (TERM, TERMS, COMP)]
    if not parts:
        return spec, None
    get = attrgetter(*[n for n, _ in parts])
    if all(k is TERM for _, k in parts):       # the common cases, in C
        return spec, (get if len(parts) > 1 else lambda e: (get(e),))
    if len(parts) == 1 and parts[0][1] is TERMS:
        return spec, get
    return spec, lambda e: tuple(
        x for n, k in parts for x in _SPLIT[k](getattr(e, n)))


#: Per kind: a field's children, and the field refilled from new ones.
_SPLIT = {TERM: lambda v: (v,), TERMS: tuple, COMP: _payloads}
_REFILL = {TERM: lambda v, it: next(it), COMP: _with_payloads,
           TERMS: lambda v, it: _shared(v, [next(it) for _ in v])}


def _rebuild(e, spec, kids: tuple, new: list):
    """``e`` with children ``new`` for ``kids``, or ``e`` if the same."""
    if _shared(kids, new) is kids:
        return e
    it = iter(new)
    return type(e)(*[_REFILL[k](getattr(e, n), it) if k in _REFILL
                     else getattr(e, n) for n, k in spec])


def preorder(e, cross: bool = False,
             unknown: Optional[Callable] = None) -> Iterator:
    """Every sub-term of ``e`` in pre-order, left to right; an unknown
    term goes to ``unknown`` (which may raise) and counts as a leaf."""
    seen: list = []         # ``append`` answers None: descend everywhere
    fold(e, seen.append, lambda term, results: None, cross, unknown)
    return iter(seen)


def fold(e, pre: Optional[Callable] = None, post: Optional[Callable] = None,
         cross: bool = False, unknown: Optional[Callable] = None):
    """Fold ``e`` bottom-up.  ``pre(term)`` returns None (descend), a
    :class:`Descend` (descend into its node instead) or the term's
    result.  ``post(term, results)`` combines the children's results;
    by default the term is rebuilt, the same object if no child changed.
    ``unknown(term)`` answers for (or raises on) an unknown term."""
    todo: list = [e]                # terms, and frames whose kids are done
    out: list = []
    while todo:
        node = todo.pop()
        if type(node) is tuple:     # (spec, term, children): combine
            spec, node, kids = node
            new = out[-len(kids):]
            del out[-len(kids):]
            out.append(_rebuild(node, spec, kids, new) if post is None
                       else post(node, new))
            continue
        if pre is not None:
            answer = pre(node)
            if answer is not None:
                if type(answer) is not Descend:
                    out.append(answer)
                    continue
                node = answer.node
        shape = _shape(type(node), cross)
        kids = shape and shape[1] and shape[1](node)
        if kids:
            todo.append((shape[0], node, kids))
            todo.extend(reversed(kids))
        elif shape is None:
            out.append(node if unknown is None else unknown(node))
        else:
            out.append(node if post is None else post(node, ()))
    return out[0]


def map_types(e, ftype: Callable, ttype: Callable):
    """``e`` with its own fields' F and T types mapped through ``ftype``
    and ``ttype`` in field order; ``e`` itself if none changed."""
    spec = (_shape(type(e), False) or ((),))[0]
    old = [getattr(e, name) for name, _ in spec]
    new = [_map_type(kind, v, ftype, ttype)
           for (_, kind), v in zip(spec, old)]
    return e if _shared(old, new) is old else type(e)(*new)


def _map_type(kind: str, v, ftype: Callable, ttype: Callable):
    if kind is FTYPE:
        return ftype(v)
    if kind is TTYPES:
        return _shared(v, [ttype(t) for t in v])
    if kind is PARAMS:
        return _shared(v, [p if t is p[1] else (p[0], t)
                           for p, t in zip(v, [ftype(t) for _, t in v])])
    if kind is DELTA:
        return _set(v, "pushes", _map_type(TTYPES, v.pushes, ftype, ttype))
    return v
