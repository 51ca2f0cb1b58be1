"""Static lints over T/FT components.

Checks that are not type errors but almost always mistakes, computed from
the static CFG:

* **unreachable blocks** -- heap blocks nothing in the component
  references, neither as a jump target nor address-taken (labels moved
  into registers or tuples can be jumped to later, so those count as
  references);
* **no exit** -- the entry cannot reach ``halt``/``ret`` (the component
  can only diverge);
* **duplicate blocks** -- two heap blocks with equal signatures and
  identical bodies (mergeable; the flip side of Fig 16's point that block
  structure is semantically irrelevant).

Returns :class:`LintWarning` records; the CLI surfaces them and the tests
pin each detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import networkx as nx

from repro import walk
from repro.analysis.cfg import component_cfg, DYNAMIC, ENTRY, EXIT
from repro.tal.equality import types_equal
from repro.tal.syntax import Component, HCode, WLoc

__all__ = ["LintWarning", "lint_component"]


@dataclass(frozen=True)
class LintWarning:
    kind: str        # unreachable-block | no-exit | duplicate-blocks
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.subject}: {self.message}"


def lint_component(comp: Component) -> List[LintWarning]:
    """Run all lints; returns an empty list for clean components."""
    warnings: List[LintWarning] = []
    graph = component_cfg(comp)

    reachable = set(nx.descendants(graph, ENTRY)) | {ENTRY}
    dynamic_possible = DYNAMIC in reachable
    # A block is referenced if any label occurrence anywhere in the
    # component names it -- jump targets *or* address-taken uses (a label
    # moved into a register or stored in a tuple can be jumped to later,
    # e.g. Fig 3's continuations).
    referenced = _referenced_labels(comp)
    for loc, h in comp.heap:
        if not isinstance(h, HCode):
            continue
        if loc.name not in referenced:
            warnings.append(LintWarning(
                "unreachable-block", loc.name,
                "nothing in the component references this block"))

    if EXIT not in reachable and not dynamic_possible:
        warnings.append(LintWarning(
            "no-exit", "<entry>",
            "the component entry cannot reach ret/halt; it can only "
            "diverge"))

    warnings.extend(_duplicate_block_lints(comp))
    return warnings


def _referenced_labels(comp: Component) -> set:
    """Every label that occurs as a value anywhere in the component,
    ``import`` payloads and the boundaries inside them included."""
    return {x.loc.name for x in walk.preorder(comp, cross=walk.ALL)
            if isinstance(x, WLoc)}


def _duplicate_block_lints(comp: Component) -> List[LintWarning]:
    warnings: List[LintWarning] = []
    blocks = [(loc, h) for loc, h in comp.heap if isinstance(h, HCode)]
    for i, (loc_a, a) in enumerate(blocks):
        for loc_b, b in blocks[i + 1:]:
            if (types_equal(a.code_type, b.code_type)
                    and str(a.instrs) == str(b.instrs)):
                warnings.append(LintWarning(
                    "duplicate-blocks", f"{loc_a.name}/{loc_b.name}",
                    "blocks have equal signatures and identical bodies; "
                    "they could be merged"))
    return warnings
