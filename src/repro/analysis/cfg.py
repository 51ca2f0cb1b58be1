"""Static control-flow graphs of T/FT components.

:func:`component_cfg` builds a :class:`networkx.DiGraph` whose nodes are
the component's basic blocks (plus a synthetic ``<entry>`` node for the
component's instruction sequence and an ``<exit>`` node for ``halt``/
``ret`` edges).  Edges are labelled by the jump kind (``jmp``, ``call``,
``bnz``, ``ret``, ``halt``, ``import``) where the target is statically a
label; jumps through registers (e.g. higher-order calls) go to the
synthetic ``<dynamic>`` node, matching how the paper's diagrams draw
callbacks into unknown code.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import networkx as nx

from repro import walk
from repro.tal.syntax import (
    Bnz, Call, Component, HCode, InstrSeq, Jmp, Operand, Ret, Halt, WLoc,
)

__all__ = ["component_cfg", "ENTRY", "EXIT", "DYNAMIC"]

ENTRY = "<entry>"
EXIT = "<exit>"
DYNAMIC = "<dynamic>"


def _static_target(u: Operand):
    """The label ``u`` statically denotes, or None for register jumps:
    the value under its packs, folds and instantiations."""
    while body := walk.children(u):
        u, = body
    return u.loc.name if isinstance(u, WLoc) else None


def _seq_edges(node: str, iseq: InstrSeq) -> Iterator[Tuple[str, str, str]]:
    from repro.ft.syntax import Import

    for instr in iseq.instrs:
        if isinstance(instr, Bnz):
            target = _static_target(instr.u)
            yield (node, target if target else DYNAMIC, "bnz")
        elif isinstance(instr, Import):
            yield (node, DYNAMIC, "import")
    term = iseq.term
    if isinstance(term, Jmp):
        target = _static_target(term.u)
        yield (node, target if target else DYNAMIC, "jmp")
    elif isinstance(term, Call):
        target = _static_target(term.u)
        yield (node, target if target else DYNAMIC, "call")
    elif isinstance(term, Ret):
        yield (node, EXIT, "ret")
    elif isinstance(term, Halt):
        yield (node, EXIT, "halt")


def component_cfg(comp: Component) -> "nx.DiGraph":
    """The static CFG of a component."""
    graph = nx.DiGraph()
    graph.add_node(ENTRY)
    for loc, h in comp.heap:
        if isinstance(h, HCode):
            graph.add_node(loc.name)
    for src, dst, kind in _seq_edges(ENTRY, comp.instrs):
        graph.add_edge(src, dst, kind=kind)
    for loc, h in comp.heap:
        if isinstance(h, HCode):
            for src, dst, kind in _seq_edges(loc.name, h.instrs):
                graph.add_edge(src, dst, kind=kind)
    return graph
