"""The linker: merge separately-built components into one FT program.

A :class:`LinkUnit` pairs a component's interface with its drop-in FT
term (the compiler's ``wrapped`` form, or a hand-written FT expression),
open in its imports.  :func:`link_components` turns a set of units plus
a main expression into one *closed* program in four phases:

1. **export table** -- duplicate export names are rejected;
2. **resolution + interface check** -- every import edge (unit-to-unit
   and main-to-unit) must name an export whose interface satisfies the
   imported type (:func:`repro.link.interface.check_import`), *without*
   re-typechecking any body;
3. **alpha-renaming** -- each unit's heap labels are renamed to
   ``<name>$l0, <name>$l1, ...`` from one link-wide
   :class:`~repro.compile.names.NameSupply`, so the merged program's
   labels are globally unique and artifacts stay deterministic (two
   links of the same units are byte-identical);
4. **substitution** -- in dependency order, each unit's term replaces
   its import variables in its consumers; the fully-substituted main
   expression is the linked program.

Import cycles are rejected: F's binding forms cannot express mutual
recursion across component boundaries (recursion lives *inside* a
component via ``fold``/``mu`` or T loops, as in Fig 17).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import LinkError
from repro.obs.events import OBS
from repro.compile.names import NameSupply
from repro import walk
from repro.f.syntax import FExpr, free_vars, subst_expr
from repro.ft.syntax import Boundary, rename_locs_in_fexpr
from repro.link.interface import ComponentInterface, check_import
from repro.tal.machine import rename_locs
from repro.tal.syntax import Loc

__all__ = [
    "LinkUnit", "LinkedProgram", "link_components", "collect_labels",
    "rename_unit_labels", "topological_order",
]


@dataclass(frozen=True)
class LinkUnit:
    """One linkable component: its interface plus its open FT term."""

    iface: ComponentInterface
    term: FExpr

    @property
    def name(self) -> str:
        return self.iface.name


@dataclass
class LinkedProgram:
    """The linker's output: a closed program plus its provenance."""

    program: FExpr
    order: Tuple[str, ...]              # units in substitution order
    interfaces: Dict[str, ComponentInterface] = field(default_factory=dict)
    labels_renamed: int = 0

    def __str__(self) -> str:
        return (f"linked program of {len(self.order)} component(s): "
                f"{', '.join(self.order)}")


# ---------------------------------------------------------------------------
# Label collection and renaming
# ---------------------------------------------------------------------------

def collect_labels(e: FExpr) -> Set[Loc]:
    """Every heap label *bound* anywhere in ``e`` (boundary components,
    including components nested inside ``import`` expressions).  Within
    one artifact these are unique -- the compiler mints them from a
    single per-compilation supply -- so one flat set is faithful."""
    acc: Set[Loc] = set()
    for x in walk.preorder(e, cross=True):
        if isinstance(x, Boundary):
            acc.update(loc for loc, _ in x.comp.heap)
    return acc


def rename_unit_labels(term: FExpr, name: str,
                       supply: NameSupply) -> Tuple[FExpr, int]:
    """Alpha-rename every label of ``term`` to ``<name>$lN`` (stable
    order: sorted by original label name).  Returns the renamed term and
    how many labels moved."""
    labels = sorted(collect_labels(term), key=lambda loc: loc.name)
    if not labels:
        return term, 0
    mapping = {loc: Loc(supply.fresh(f"{name}$l")) for loc in labels}
    return rename_locs_in_fexpr(term, mapping, rename_locs), len(mapping)


# ---------------------------------------------------------------------------
# Dependency order
# ---------------------------------------------------------------------------

def topological_order(deps: Dict[str, Set[str]]) -> List[str]:
    """Kahn's algorithm over ``name -> {names it depends on}``;
    deterministic (name order) and raising :class:`LinkError` on a
    cycle."""
    pending = {name: set(ds) for name, ds in deps.items()}
    order: List[str] = []
    while pending:
        ready = sorted(name for name, ds in pending.items() if not ds)
        if not ready:
            cycle = ", ".join(sorted(pending))
            raise LinkError(
                f"import cycle among components: {cycle} (cross-component "
                f"recursion is not linkable; recurse inside one component "
                f"via fold/mu or T loops instead)",
                stage="cycle", subject=cycle)
        for name in ready:
            order.append(name)
            del pending[name]
        for ds in pending.values():
            ds.difference_update(ready)
    return order


# ---------------------------------------------------------------------------
# Linking
# ---------------------------------------------------------------------------

def link_components(units: Sequence[LinkUnit],
                    main: FExpr) -> LinkedProgram:
    """Link ``units`` and close ``main`` over them; see module docstring.

    Raises :class:`LinkError` for duplicate exports, unresolved or
    cyclic imports, and interface mismatches.
    """
    with OBS.span("link.link", "link", components=len(units)):
        return _link(units, main)


def _link(units: Sequence[LinkUnit], main: FExpr) -> LinkedProgram:
    exports: Dict[str, LinkUnit] = {}
    for unit in units:
        if unit.name in exports:
            raise LinkError(
                f"duplicate export {unit.name!r} (digests "
                f"{exports[unit.name].iface.digest[:12]} and "
                f"{unit.iface.digest[:12]})",
                stage="exports", subject=unit.name)
        exports[unit.name] = unit

    # Resolve and interface-check every import edge.
    deps: Dict[str, Set[str]] = {}
    for unit in units:
        deps[unit.name] = set()
        for imported, required in unit.iface.imports:
            provider = exports.get(imported)
            if provider is None:
                raise LinkError(
                    f"component {unit.name!r} imports {imported!r}, which "
                    f"no linked component exports "
                    f"(available: {', '.join(sorted(exports)) or 'none'})",
                    stage="resolve", subject=imported)
            check_import(unit.name, imported, required, provider.iface)
            deps[unit.name].add(imported)

    main_imports = sorted(free_vars(main))
    for imported in main_imports:
        if imported not in exports:
            raise LinkError(
                f"main expression imports {imported!r}, which no linked "
                f"component exports "
                f"(available: {', '.join(sorted(exports)) or 'none'})",
                stage="resolve", subject=imported)

    order = topological_order(deps)

    # Alpha-rename, then substitute bottom-up.
    supply = NameSupply()
    renamed_total = 0
    linked: Dict[str, FExpr] = {}
    for name in order:
        unit = exports[name]
        term, renamed = rename_unit_labels(unit.term, name, supply)
        renamed_total += renamed
        for imported, _ in unit.iface.imports:
            term = subst_expr(term, imported, linked[imported])
        linked[name] = term

    program = main
    for imported in main_imports:
        program = subst_expr(program, imported, linked[imported])

    leftover = free_vars(program)
    if leftover:
        raise LinkError(
            f"linked program is still open in "
            f"{', '.join(sorted(leftover))}",
            stage="resolve", subject=", ".join(sorted(leftover)))

    if OBS.enabled:
        OBS.metrics.inc("link.components", len(units))
        OBS.metrics.inc("link.labels_renamed", renamed_total)
        OBS.metrics.inc("link.link")

    return LinkedProgram(
        program=program, order=tuple(order),
        interfaces={u.name: u.iface for u in units},
        labels_renamed=renamed_total)
