"""``funtal build``: manifests, incremental recompilation, cached validation.

A *manifest* is a JSON object naming the components of a multi-component
program plus its main expression::

    {
      "components": {
        "double": "lam (x: int). (x + x)",
        "quad":   "lam (x: int). double (double x)",
        "fact":   {"builtin": "fact-t"}
      },
      "main": "quad (fact 3)"
    }

Component bodies are surface-syntax FT expressions (hand-written T
components ride along as ``FT[...]`` boundary terms) or ``builtin``
references to the paper-example builders (Figs 16-17).  Free variables
of a body are its *imports* and must name other components; the build
orders definitions by that dependency graph.

Incrementality is content addressing end to end: a component's digest
is the :func:`~repro.link.fingerprint.stable_fingerprint` of its parsed
body plus its import typing, so ``build`` consults the
:class:`~repro.link.store.ArtifactStore` first and only recompiles
components whose digest is absent -- i.e. whose source (or whose
*interface seen from its imports*) actually changed.  Editing one
component of an N-component program recompiles exactly that component
(plus any dependent whose import typing changed with it).

Translation validation is amortized the same way: a digest validated
once gets a ``validation`` receipt in the store, and later builds (and
``funtal compile --store``) skip re-validation with a
``compile.validate.cache_hit`` counter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import LinkError
from repro.obs.events import OBS
from repro.compile.pipeline import (
    CompilationResult, compile_term, is_general_compilable,
)
from repro.f.syntax import App, FExpr, FType, Lam
from repro.ft.syntax import Boundary, ft_free_vars
from repro.ft.typecheck import check_ft_expr
from repro.link.fingerprint import stable_fingerprint
from repro.link.interface import TIER_COMPILED, ComponentInterface
from repro.link.linker import (
    LinkedProgram, LinkUnit, link_components, topological_order,
)
from repro.link.store import ArtifactStore

__all__ = [
    "Manifest", "parse_manifest", "BuildRecord", "BuildReport",
    "build_manifest", "build_and_link", "cached_validation",
    "component_digest", "TIER_HANDWRITTEN", "BUILTIN_COMPONENTS",
]

TIER_HANDWRITTEN = "handwritten"


def _builtin_builders() -> Dict[str, Callable[[], FExpr]]:
    from repro.papers_examples.fig16_two_blocks import build_f1, build_f2
    from repro.papers_examples.fig17_factorial import (
        build_fact_f, build_fact_t,
    )

    return {"fact-t": build_fact_t, "fact-f": build_fact_f,
            "fig16-f1": build_f1, "fig16-f2": build_f2}


#: Raw paper-example builders addressable from a manifest as
#: ``{"builtin": NAME}`` -- the *unapplied* lambdas, unlike the example
#: registry, which wraps them in driver applications.
BUILTIN_COMPONENTS = tuple(sorted(_builtin_builders()))


@dataclass(frozen=True)
class Manifest:
    """A parsed manifest: named component bodies plus a main expression."""

    components: Tuple[Tuple[str, FExpr], ...]
    main: FExpr

    def component_map(self) -> Dict[str, FExpr]:
        return dict(self.components)


def parse_manifest(text: str) -> Manifest:
    """Parse manifest JSON; :class:`LinkError` (stage ``manifest``) on
    structural problems, :class:`~repro.errors.ParseError` on bad
    component syntax."""
    from repro.surface.parser import parse_fexpr

    try:
        data = json.loads(text)
    except ValueError as err:
        raise LinkError(f"manifest is not valid JSON: {err}",
                        stage="manifest") from None
    if not isinstance(data, dict):
        raise LinkError("manifest must be a JSON object", stage="manifest")
    unknown = set(data) - {"components", "main"}
    if unknown:
        raise LinkError(
            f"unknown manifest key(s): {', '.join(sorted(unknown))}",
            stage="manifest")
    defs = data.get("components")
    if not isinstance(defs, dict) or not defs:
        raise LinkError("manifest needs a non-empty 'components' object",
                        stage="manifest")
    if not isinstance(data.get("main"), str):
        raise LinkError("manifest needs a 'main' expression string",
                        stage="manifest")
    builders = _builtin_builders()
    parsed: List[Tuple[str, FExpr]] = []
    for name, body in defs.items():
        if isinstance(body, str):
            parsed.append((name, parse_fexpr(body)))
        elif isinstance(body, dict) and set(body) == {"source"}:
            parsed.append((name, parse_fexpr(body["source"])))
        elif isinstance(body, dict) and set(body) == {"builtin"}:
            builder = builders.get(body["builtin"])
            if builder is None:
                raise LinkError(
                    f"component {name!r}: unknown builtin "
                    f"{body['builtin']!r} (available: "
                    f"{', '.join(BUILTIN_COMPONENTS)})",
                    stage="manifest", subject=name)
            parsed.append((name, builder()))
        else:
            raise LinkError(
                f"component {name!r} must be a source string, "
                f"{{\"source\": ...}}, or {{\"builtin\": ...}}",
                stage="manifest", subject=name)
    return Manifest(components=tuple(parsed),
                    main=parse_fexpr(data["main"]))


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------

def component_digest(expr: FExpr,
                     imports: Sequence[Tuple[str, FType]],
                     optimize: bool = True) -> str:
    """The artifact address of one component: body + import typing +
    pipeline options.  Deliberately *not* the component's name -- two
    names for the same body share one artifact."""
    return stable_fingerprint(
        ("funtal.link.component", 1, expr, tuple(sorted(imports)),
         bool(optimize)))


@dataclass(frozen=True)
class StoredComponent:
    """The store payload: the interface plus the drop-in FT term."""

    iface: ComponentInterface
    term: FExpr


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------

@dataclass
class BuildRecord:
    """One component's build outcome."""

    name: str
    digest: str
    tier: str
    cached: bool                     # served from the artifact store
    iface: ComponentInterface
    term: FExpr
    validation: Optional[Dict] = None
    validation_cached: bool = False

    def to_json(self) -> Dict:
        out = {"name": self.name, "digest": self.digest, "tier": self.tier,
               "cached": self.cached, "type": str(self.iface.ty),
               "imports": [f"{n}: {t}" for n, t in self.iface.imports]}
        if self.validation is not None:
            out["validation"] = dict(self.validation,
                                     cached=self.validation_cached)
        return out


@dataclass
class BuildReport:
    """Everything ``build_manifest`` did, in dependency order."""

    records: List[BuildRecord] = field(default_factory=list)
    main: Optional[FExpr] = None

    @property
    def recompiled(self) -> List[str]:
        return [r.name for r in self.records if not r.cached]

    @property
    def cached(self) -> List[str]:
        return [r.name for r in self.records if r.cached]

    def units(self) -> List[LinkUnit]:
        return [LinkUnit(iface=r.iface, term=r.term) for r in self.records]

    def to_json(self) -> Dict:
        return {"components": [r.to_json() for r in self.records],
                "recompiled": self.recompiled, "cached": self.cached}


def _dependency_order(manifest: Manifest) -> List[str]:
    names = {name for name, _ in manifest.components}
    deps: Dict[str, set] = {}
    for name, expr in manifest.components:
        free = ft_free_vars(expr)
        unknown = free - names
        if unknown:
            raise LinkError(
                f"component {name!r} has free variable(s) "
                f"{', '.join(sorted(unknown))} naming no component",
                stage="resolve", subject=name)
        if name in free:
            raise LinkError(
                f"component {name!r} imports itself (recurse inside the "
                f"component via fold/mu instead)",
                stage="cycle", subject=name)
        deps[name] = set(free)
    return topological_order(deps)


def _build_one(name: str, expr: FExpr, gamma: Dict[str, FType],
               optimize: bool) -> Tuple[ComponentInterface, FExpr, str]:
    """Compile (or adopt) one component; returns (iface, term, tier)."""
    imports = tuple(sorted((n, gamma[n]) for n in ft_free_vars(expr)))
    if is_general_compilable(expr, dict(imports) or None):
        result = compile_term(expr, dict(imports) or None,
                              optimize=optimize)
        iface = ComponentInterface(name=name, ty=result.ty,
                                   imports=result.free)
        return iface, result.wrapped, TIER_COMPILED
    # Outside the compiler: a hand-written FT term (e.g. Fig 17's
    # factT).  One static check here stands in for compilation.
    ty, _ = check_ft_expr(expr, gamma=dict(imports) if imports else None)
    iface = ComponentInterface(name=name, ty=ty, imports=imports,
                               tier=TIER_HANDWRITTEN)
    return iface, expr, TIER_HANDWRITTEN


def build_manifest(manifest: Manifest,
                   store: Optional[ArtifactStore] = None, *,
                   optimize: bool = True,
                   validate: bool = False,
                   validate_fuel: int = 30_000,
                   seed: int = 0) -> BuildReport:
    """Build every component of ``manifest``, store-first.

    With ``store=None`` every component is built in-process (no
    persistence).  With ``validate=True`` compiled components are
    translation-validated, reusing store receipts across builds.
    """
    order = _dependency_order(manifest)
    bodies = manifest.component_map()
    report = BuildReport(main=manifest.main)
    export_ty: Dict[str, FType] = {}

    with OBS.span("link.build", "link", components=len(order)):
        for name in order:
            expr = bodies[name]
            imports = tuple(sorted(
                (n, export_ty[n]) for n in ft_free_vars(expr)))
            digest = component_digest(expr, imports, optimize)
            record = None
            if store is not None:
                found = store.get(digest)
                if found is not None:
                    stored: StoredComponent = found[1]
                    record = BuildRecord(
                        name=name, digest=digest,
                        tier=stored.iface.tier, cached=True,
                        iface=replace(stored.iface, name=name),
                        term=stored.term)
            if record is None:
                iface, term, tier = _build_one(
                    name, expr, dict(imports), optimize)
                iface = replace(iface, digest=digest)
                record = BuildRecord(name=name, digest=digest, tier=tier,
                                     cached=False, iface=iface, term=term)
                if store is not None:
                    store.put(digest, StoredComponent(iface, term),
                              meta={"name": name, "tier": tier,
                                    "type": str(iface.ty)})
                if OBS.enabled:
                    OBS.metrics.inc("link.build.compiled")
            elif OBS.enabled:
                OBS.metrics.inc("link.build.store_hit")
            if validate and record.tier != TIER_HANDWRITTEN:
                record.validation, record.validation_cached = \
                    cached_validation(store, digest,
                                      _as_result(record, expr),
                                      fuel=validate_fuel, seed=seed)
            export_ty[name] = record.iface.ty
            report.records.append(record)
    return report


def _as_result(record: BuildRecord, source: FExpr) -> CompilationResult:
    """Reconstruct a :class:`CompilationResult` for validation of a
    store-loaded artifact (the validator reads source/wrapped/ty/free)."""
    term = record.term
    if isinstance(term, Lam) and isinstance(term.body, App) \
            and isinstance(term.body.fn, Boundary):
        component = term.body.fn.comp
    elif isinstance(term, Boundary):
        component = term.comp
    else:
        raise LinkError(
            f"component {record.name!r} ({record.tier} tier) has no "
            f"extractable boundary component to validate",
            stage="interface", subject=record.name)
    return CompilationResult(source=source,
                             ty=record.iface.ty, wrapped=term,
                             component=component,
                             free=record.iface.imports)


def cached_validation(store: Optional[ArtifactStore], digest: str,
                      result: CompilationResult,
                      **kwargs) -> Tuple[Dict, bool]:
    """Translation validation amortized by content hash.

    Returns ``(report json, was_cached)``.  An ``ok`` receipt stored
    under ``digest`` short-circuits the (orders-of-magnitude more
    expensive) validation run and counts
    ``compile.validate.cache_hit``; failing reports are never cached --
    a bad artifact should be re-diagnosed, not remembered.
    """
    from repro.compile.validate import validate_compilation

    if store is not None:
        receipt = store.get_validation(digest)
        if receipt is not None and receipt.get("ok"):
            if OBS.enabled:
                OBS.metrics.inc("compile.validate.cache_hit")
            return receipt, True
    report = validate_compilation(result, **kwargs)
    payload = report.to_json()
    if store is not None and report.ok:
        store.put_validation(digest, payload)
    return payload, False


def build_and_link(manifest: Manifest,
                   store: Optional[ArtifactStore] = None, *,
                   optimize: bool = True,
                   validate: bool = False,
                   validate_fuel: int = 30_000,
                   seed: int = 0) -> Tuple[BuildReport, LinkedProgram]:
    """The whole pipeline: incremental build, then typed linking."""
    report = build_manifest(manifest, store, optimize=optimize,
                            validate=validate,
                            validate_fuel=validate_fuel, seed=seed)
    linked = link_components(report.units(), manifest.main)
    return report, linked
