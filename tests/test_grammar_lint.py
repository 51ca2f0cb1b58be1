"""Lint: FT's term grammar is written down once, in :mod:`repro.walk`.

:data:`repro.walk.GRAMMAR` lists every field of every term class, and
the traversals over terms (free variables, substitutions, label
collection and renaming, the JIT rewrite) are folds over it.  A
function elsewhere in ``src/`` that dispatches on several F term classes
-- ``isinstance`` against them, ``type(x) is`` comparisons, ``match``
class patterns or a dict keyed by them -- is another hand-written copy
of the grammar, and fails here unless :data:`ALLOWED` lists it.

Allowed are the places whose dispatch *is* their meaning, one rule or
value form per class: the evaluators, the typecheckers, closure
conversion, the JIT's scope test, and the functions that read values
(or the compiler's wrapper) by their shape.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import repro
from repro import walk
from repro.f.syntax import FExpr

SRC = Path(repro.__file__).resolve().parent

#: Class names of the F/FT term forms the lint watches for.
TERM_CLASSES = frozenset(key.rsplit(".", 1)[1] for key in walk.GRAMMAR)

#: A function naming this many term classes in dispatch positions is
#: walking the grammar.
SEVERAL = 3

#: (module path under ``repro/``, function) allowed to dispatch.
ALLOWED = {
    ("f/eval.py", "split_context"),           # substitution evaluator
    ("f/eval.py", "reduce_redex"),
    ("f/eval.py", "_drive"),
    ("f/cek.py", "_try_value"),               # CEK evaluator
    ("f/cek.py", "_drive"),
    ("f/typecheck.py", "_check"),             # typecheckers
    ("ft/typecheck.py", "check_fexpr"),
    ("compile/closure.py", "convert"),        # closure conversion
    ("compile/pipeline.py", "_arith_body"),   # the JIT's scope
    ("f/syntax.py", "is_value"),              # value forms
    ("ft/boundary.py", "f_to_t"),
    ("equiv/observation.py", "canonical_value"),
    ("equiv/worlds.py", "related_values"),
    ("link/build.py", "_as_result"),          # the compiler's wrapper
}


def _names(node):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [n for elt in node.elts for n in _names(elt)]
    return []


def _dispatched(node):
    """Class names ``node`` dispatches on, if it is a dispatch."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2):
        return _names(node.args[1])
    if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq, ast.In,
                            ast.NotIn)) for op in node.ops):
        return [n for side in (node.left, *node.comparators)
                for n in _names(side)]
    if isinstance(node, ast.MatchClass):
        return _names(node.cls)
    if isinstance(node, ast.Dict):
        return [n for key in node.keys if key is not None
                for n in _names(key)]
    return []


def dispatch_sites(source: str, rel: str):
    """(``rel``, function) of every function in ``source`` dispatching on
    at least :data:`SEVERAL` term classes (nested functions count on
    their own)."""
    found = {}

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            names = set(_dispatched(child)) & TERM_CLASSES
            if names:
                found.setdefault(func, set()).update(names)
            visit(child, inner)

    visit(ast.parse(source, filename=rel), "<module>")
    return {(rel, func) for func, names in found.items()
            if len(names) >= SEVERAL}


class TestGrammarLint:
    def test_no_hand_written_grammar_outside_the_walk(self):
        found = set()
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel != "walk.py":
                found |= dispatch_sites(path.read_text(), rel)
        unexpected = found - ALLOWED
        assert not unexpected, (
            f"functions dispatching on several term classes: "
            f"{sorted(unexpected)}; traverse terms with repro.walk")
        stale = ALLOWED - found
        assert not stale, f"allowlisted but gone: {sorted(stale)}"

    def test_lint_sees_every_dispatch_style(self):
        source = (
            "def chain(e):\n"
            "    if isinstance(e, (Var, IntE)): pass\n"
            "    elif isinstance(e, f_syntax.BinOp): pass\n"
            "def by_type(e):\n"
            "    cls = type(e)\n"
            "    return cls is App or cls is If0 or cls is Lam\n"
            "def by_table(e):\n"
            "    return {Fold: 1, Unfold: 2, Proj: 3}[type(e)]\n"
            "def by_match(e):\n"
            "    match e:\n"
            "        case TupleE(): pass\n"
            "        case Boundary(): pass\n"
            "        case StackLam(): pass\n"
            "def two(e):\n"
            "    return isinstance(e, (Var, Lam))\n")
        assert dispatch_sites(source, "x.py") == {
            ("x.py", "chain"), ("x.py", "by_type"), ("x.py", "by_table"),
            ("x.py", "by_match")}


class TestGrammar:
    """The grammar names real classes and every one of their fields."""

    @staticmethod
    def resolve(key):
        module, name = key.rsplit(".", 1)
        return getattr(importlib.import_module(module), name)

    def test_entries_list_every_field_in_order(self):
        for key, spec in walk.GRAMMAR.items():
            cls = self.resolve(key)
            fields = [f.name for f in dataclasses.fields(cls) if f.init]
            assert [name for name, _ in spec] == fields, key

    def test_payload_classes_exist(self):
        for (module, name), field in ((walk.IMPORT, "expr"),
                                      (walk.CODE_BLOCK, "instrs")):
            cls = self.resolve(f"{module}.{name}")
            assert field in {f.name for f in dataclasses.fields(cls)}

    def test_every_term_class_is_in_the_grammar(self):
        from repro.f import cek  # noqa: F401  (registers its closures)
        from repro.ft import lump, syntax  # noqa: F401

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        keys = {f"{c.__module__}.{c.__qualname__}"
                for c in subclasses(FExpr)
                if c.__module__.startswith("repro.")}
        # Machine-only forms no traversal accepts: the resumption hole
        # and the CEK closure (a registered closed value).
        outside = {"repro.ft.syntax.Hole", "repro.f.cek.Closure"}
        assert keys - outside == set(walk.GRAMMAR)
