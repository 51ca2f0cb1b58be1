"""The compilation pipeline: eligibility, passes, cache, wrapping.

One compiler covers all of F (higher-order functions, multi-argument
lambdas, tuples, ``fold``/``unfold``, ``unit``, ``if0``): closure
conversion (:mod:`repro.compile.closure`), stack-machine code generation
(:mod:`repro.compile.codegen`), then :func:`tal.optimize.optimize_component`
as a post-pass.

Every compilation is wrapped exactly like the paper's examples:
``lam(x...). (arrow FT component) x...`` for lambdas, ``tau FT
component`` for other closed terms -- so a compiled term substitutes
for its source anywhere in an F program.

The JIT (paper section 6) asks one more question: which lambdas of a
program to swap for compiled code.  :func:`jit_eligible` is the one
answer: it admits first-order all-``int`` lambdas.  :func:`jit_rewrite`
walks a program and replaces each admitted lambda; a caller that wants
any other closed lambda compiled calls :func:`compile_term` on it.

Instrumentation: a ``compile.pipeline`` span wraps the run with child
spans per pass; ``compile.*`` counters count compilations, hoisted code
definitions, emitted blocks, and cache traffic (see
``docs/observability.md``).

Results are memoized in :data:`COMPILE_CACHE`, one
:class:`repro.caching.LRUCache` keyed on (source term, free-variable
typing, optimize flag) -- sound because the per-compilation
:class:`~repro.compile.names.NameSupply` makes output deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.caching import LRUCache
from repro.errors import CompileError, FunTALError
from repro.obs.events import OBS
from repro.resilience.chaos import probe
from repro.f.syntax import (
    App, BinOp, FArrow, FExpr, FInt, FType, Fold, If0, IntE, Lam, Proj,
    TupleE, Unfold, UnitE, Var,
)
from repro.f.typecheck import typecheck as f_typecheck
from repro.ft.syntax import Boundary, StackLam
from repro.tal.optimize import optimize_component
from repro.tal.syntax import Component
from repro.compile.closure import ClosProgram, closure_convert
from repro.compile.codegen import generate_expr, generate_function
from repro.compile.names import NameSupply

__all__ = [
    "CompilationResult", "COMPILE_CACHE", "clear_compile_cache",
    "is_general_compilable", "compile_term", "compile_function",
    "jit_eligible", "jit_rewrite",
]

# Structurally identical terms compile to interchangeable components --
# the machine renames heap labels freshly at every load -- and the
# deterministic name supply makes the artifact itself reproducible, so
# entries are safe to content-address downstream (the serve layer does).
COMPILE_CACHE: LRUCache = LRUCache(512, metric_prefix="jit.cache")


def clear_compile_cache() -> None:
    """Drop all memoized compilations (used by tests and benchmarks)."""
    COMPILE_CACHE.clear()


@dataclass(frozen=True)
class CompilationResult:
    """Everything the pipeline produced for one term.

    ``wrapped`` is the drop-in FT replacement for the source term;
    ``component`` the generated T component inside it; ``clos`` the
    closure-conversion IR (``None`` for a result rebuilt from a stored
    artifact).
    """

    source: FExpr
    ty: FType
    wrapped: FExpr
    component: Component
    clos: Optional[ClosProgram] = None
    free: Tuple[Tuple[str, FType], ...] = ()

    def pretty_ir(self) -> str:
        if self.clos is None:
            return "(no closure IR: rebuilt from a stored artifact)"
        return self.clos.pretty()

    def block_count(self) -> int:
        return len(self.component.heap)


def is_general_compilable(e: FExpr,
                          gamma: Optional[Dict[str, FType]] = None) -> bool:
    """Does the compiler cover ``e``?  Any core-F term that typechecks
    under ``gamma`` (no FT-only forms, no stack lambdas, no free
    variables beyond ``gamma``)."""
    if isinstance(e, StackLam):
        return False
    try:
        f_typecheck(e, dict(gamma) if gamma else None)
    except FunTALError:
        return False
    except RecursionError:  # pathologically deep terms: just decline
        return False
    return True


def _arith_body(e: FExpr, scope) -> bool:
    if isinstance(e, IntE):
        return True
    if isinstance(e, Var):
        return e.name in scope
    if isinstance(e, BinOp):
        return _arith_body(e.left, scope) and _arith_body(e.right, scope)
    if isinstance(e, If0):
        return (_arith_body(e.cond, scope) and _arith_body(e.then, scope)
                and _arith_body(e.els, scope))
    return False


def jit_eligible(e: FExpr) -> bool:
    """Is ``e`` a lambda the JIT should compile?

    The JIT's scope is first-order arithmetic: all parameters ``int``,
    body built from literals, parameters, ``+ - *`` and ``if0``.
    """
    if not isinstance(e, Lam) or isinstance(e, StackLam):
        return False
    return (bool(e.params)
            and all(isinstance(t, FInt) for _, t in e.params)
            and _arith_body(e.body, {x for x, _ in e.params}))


def _wrap(e: FExpr, ty: FType, comp: Component) -> FExpr:
    """The paper-shaped wrapper making a component a drop-in replacement."""
    if isinstance(e, Lam):
        assert isinstance(ty, FArrow)
        return Lam(e.params,
                   App(Boundary(ty, comp),
                       tuple(Var(x) for x, _ in e.params)))
    return Boundary(ty, comp)


def _compile_uncached(e: FExpr, gamma: Optional[Dict[str, FType]],
                      optimize: bool) -> CompilationResult:
    supply = NameSupply()
    ty = f_typecheck(e, dict(gamma) if gamma else None)
    with OBS.span("compile.closure", "compile"):
        prog = closure_convert(e, gamma, supply)
    with OBS.span("compile.codegen", "compile"):
        if prog.main_code is not None:
            comp = generate_function(prog, supply)
        else:
            comp = generate_expr(prog, supply)
    if optimize:
        with OBS.span("compile.optimize", "compile"):
            comp = optimize_component(comp)
    if OBS.enabled:
        OBS.metrics.inc("compile.defs", len(prog.defs))
        OBS.metrics.inc("compile.blocks", len(comp.heap))
    return CompilationResult(e, ty, _wrap(e, ty, comp), comp,
                             clos=prog, free=prog.free)


def compile_term(e: FExpr, gamma: Optional[Dict[str, FType]] = None,
                 optimize: bool = True) -> CompilationResult:
    """Compile ``e`` (memoized).

    Raises :class:`~repro.errors.CompileError` when ``e`` is not a core-F
    term that typechecks under ``gamma``.
    """
    gamma_key = tuple(sorted((gamma or {}).items()))
    key = (e, gamma_key, optimize)
    cached = COMPILE_CACHE.get(key)
    if cached is not None:
        return cached
    if not is_general_compilable(e, gamma):
        raise CompileError("not a compilable F term",
                           judgment="compile.eligibility", subject=str(e))
    arity = len(e.params) if isinstance(e, Lam) else 0
    probe("jit.compile", f"arity {arity}")
    with OBS.span("compile.pipeline", "compile", arity=arity):
        result = _compile_uncached(e, gamma, optimize)
    if OBS.enabled:
        # "jit.compile" is the historical name for "a lambda was actually
        # compiled (cache miss)"; dashboards and tests key on it, so it
        # keeps counting alongside the namespaced counter.
        OBS.metrics.inc("jit.compile")
        OBS.metrics.inc("compile.compile")
    COMPILE_CACHE.put(key, result)
    return result


def compile_function(lam: Lam,
                     gamma: Optional[Dict[str, FType]] = None,
                     optimize: bool = True) -> CompilationResult:
    """Compile a lambda (the JIT's unit of work)."""
    if not isinstance(lam, Lam) or isinstance(lam, StackLam):
        raise CompileError("only plain lambdas can be compiled as "
                           "functions", judgment="compile.eligibility",
                           subject=str(lam))
    return compile_term(lam, gamma, optimize)


def jit_rewrite(e: FExpr,
                compile_lambda: Optional[
                    Callable[[Lam], Optional[FExpr]]] = None) -> FExpr:
    """Replace every :func:`jit_eligible` lambda in ``e`` by its compiled
    version -- the paper's picture of a JIT moving a program between
    multi-language configurations.

    ``compile_lambda`` maps an eligible lambda to its replacement, or to
    ``None`` to leave it interpreted (its body is still walked); the
    default compiles it with :func:`compile_term`.
    """
    if compile_lambda is None:
        def compile_lambda(lam: Lam) -> FExpr:
            return compile_term(lam).wrapped

    def walk(e: FExpr) -> FExpr:
        if jit_eligible(e):
            replaced = compile_lambda(e)  # type: ignore[arg-type]
            if replaced is not None:
                return replaced
        if isinstance(e, (Var, IntE, UnitE)):
            return e
        if isinstance(e, BinOp):
            return BinOp(e.op, walk(e.left), walk(e.right))
        if isinstance(e, If0):
            return If0(walk(e.cond), walk(e.then), walk(e.els))
        if isinstance(e, StackLam):
            return StackLam(e.params, walk(e.body), e.phi_in, e.phi_out)
        if isinstance(e, Lam):
            return Lam(e.params, walk(e.body))
        if isinstance(e, App):
            return App(walk(e.fn), tuple(walk(a) for a in e.args))
        if isinstance(e, Fold):
            return Fold(e.ann, walk(e.body))
        if isinstance(e, Unfold):
            return Unfold(walk(e.body))
        if isinstance(e, TupleE):
            return TupleE(tuple(walk(x) for x in e.items))
        if isinstance(e, Proj):
            return Proj(e.index, walk(e.body))
        return e  # boundaries and other leaves are left untouched

    return walk(e)
