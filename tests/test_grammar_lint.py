"""Lint: FT's term and type grammar is written down once, in
:mod:`repro.walk`.

:data:`repro.walk.GRAMMAR` lists every field of every term class, of F
and of T alike, and the traversals over terms (free variables and free
type variables, substitutions of both languages, label collection and
renaming, erasure, the JIT rewrite) are folds over it.  It lists every
type class too (:data:`repro.walk.TYPE_GRAMMAR`), and the traversals
over types (free type variables, capture-avoiding substitution, the T
types inside an F type, canonical forms, alpha-equivalence) walk it.  A
function elsewhere in ``src/`` that dispatches on several term classes,
or on several type classes -- ``isinstance`` against them, ``type(x)
is`` comparisons, ``match`` class patterns or a dict keyed by them -- is
another hand-written copy of the grammar, and fails here unless
:data:`ALLOWED` (terms) or :data:`ALLOWED_TYPES` lists it.

Allowed are the places whose dispatch *is* their meaning, one rule or
value form per class: the evaluators and the T machines' steps, the fast
T tier's lowering, the typecheckers and well-formedness, closure
conversion, the JIT's scope test, the static CFG's edges, the T
peepholes, erasure's table of the annotation each annotated form keeps,
the type translations, and the functions that read or build values (or
the compiler's wrapper) by their shape or type.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import repro
from repro import walk
from repro.f.syntax import FExpr, FType
from repro.tal.syntax import (
    Component, HeapValType, HeapValue, InstrSeq, Instruction, Operand,
    RegFileTy, RetMarker, StackTy, TalType, Terminator,
)

SRC = Path(repro.__file__).resolve().parent

#: The base classes of F's and T's terms: every concrete subclass is a
#: grammar entry.
TERM_BASES = (FExpr, Operand, Instruction, Terminator, HeapValue, InstrSeq,
              Component)

#: The base classes of F's and T's types.
TYPE_BASES = (FType, TalType, HeapValType, StackTy, RegFileTy, RetMarker)

#: Class names of the F, T and FT term forms the lint watches for, and
#: of the type forms.
TERM_CLASSES = frozenset(key.rsplit(".", 1)[1] for key in walk.GRAMMAR
                         if key not in walk.TYPE_GRAMMAR)
TYPE_CLASSES = frozenset(key.rsplit(".", 1)[1]
                         for key in walk.TYPE_GRAMMAR)

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
    ("tal/machine.py", "resolve"),            # T machine: one step per
    ("tal/machine.py", "exec_instruction"),   # operand, instruction and
    ("tal/machine.py", "exec_terminator"),    # terminator form
    ("tal/fast.py", "_lower_instr_raw"),      # fast T tier: lowering per
    ("tal/fast.py", "_lower_term_raw"),       # form, the ops it builds,
    ("tal/fast.py", "op"),                    # and their operand reads
    ("tal/fast.py", "_resolve_rt"),
    ("ft/typecheck.py", "check_fexpr"),       # typecheckers
    ("tal/typecheck.py", "<module>"),         # T: one rule per form
    ("compile/closure.py", "convert"),        # closure conversion
    ("compile/pipeline.py", "_arith_body"),   # the JIT's scope
    ("analysis/cfg.py", "_seq_edges"),        # one CFG edge per jump form
    ("tal/optimize.py", "_trampoline_target"),    # peepholes: rewrites
    ("tal/optimize.py", "collapse_stack_traffic"),  # of given forms
    ("tal/erasure.py", "<module>"),           # erasure: the annotation a
                                              # pack, fold, halt keeps
    ("f/syntax.py", "is_value"),              # value forms
    ("ft/boundary.py", "f_to_t"),
    ("equiv/observation.py", "canonical_value"),
    ("equiv/worlds.py", "related_values"),
    ("link/build.py", "_as_result"),          # the compiler's wrapper
}

#: (module path under ``repro/``, function) allowed to dispatch on
#: several type classes: typing rules, one per type form.
ALLOWED_TYPES = {
    ("ft/typecheck.py", "check_fexpr"),       # typecheckers: the rules'
                                              # premises on a type's form
    ("tal/typecheck.py", "_check_call"),
    ("tal/typecheck.py", "_step_ld"),
    ("tal/retmarker.py", "ret_type"),         # Fig 2's ret-type and
    ("tal/retmarker.py", "ret_addr_type"),    # ret-addr-type, per marker
    ("tal/wellformed.py", "check_type_wf"),   # well-formedness, per form
    ("tal/wellformed.py", "check_q_wf"),
    ("tal/wellformed.py", "check_q_restriction"),
    ("ft/translate.py", "_translate"),        # Fig 9's type translation
    ("compile/typerep.py", "_translate"),     # the compiler's (packed
                                              # closures inside)
    ("tal/erasure.py", "_erase"),             # erasure: what each T type
                                              # category erases to
    ("ft/boundary.py", "f_to_t"),             # Fig 10's value
    ("ft/boundary.py", "t_to_f"),             # translations, per type
    ("equiv/generators.py", "values_of"),     # the equivalence checker:
    ("equiv/contexts.py", "contexts_for"),    # values, contexts and the
    ("equiv/worlds.py", "related_values"),    # relation, per type
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


def dispatch_sites(source: str, rel: str, classes=TERM_CLASSES):
    """(``rel``, function) of every function in ``source`` dispatching on
    at least :data:`SEVERAL` of ``classes`` (term classes by default;
    nested functions count on their own)."""
    found = {}

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            names = set(_dispatched(child)) & classes
            if names:
                found.setdefault(func, set()).update(names)
            visit(child, inner)

    visit(ast.parse(source, filename=rel), "<module>")
    return {(rel, func) for func, names in found.items()
            if len(names) >= SEVERAL}


def all_sites(classes):
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel != "walk.py":
            found |= dispatch_sites(path.read_text(), rel, classes)
    return found


class TestGrammarLint:
    def test_no_hand_written_grammar_outside_the_walk(self):
        found = all_sites(TERM_CLASSES)
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
            "    return isinstance(e, (Var, Lam))\n"
            "def t_chain(i):\n"
            "    if isinstance(i, (Aop, Bnz)): pass\n"
            "    elif isinstance(i, syntax.Unpack): pass\n"
            "    elif isinstance(i, Import): pass\n")
        assert dispatch_sites(source, "x.py") == {
            ("x.py", "chain"), ("x.py", "by_type"), ("x.py", "by_table"),
            ("x.py", "by_match"), ("x.py", "t_chain")}

    def test_a_t_instruction_chain_fails_the_lint(self, tmp_path):
        """Reintroducing one of the deleted per-instruction chains (here
        the old ``subst_instr``) is a finding, not an allowed site."""
        source = (
            "def subst_instr(i, s):\n"
            "    if isinstance(i, (Ld, St, Ralloc, Balloc)):\n"
            "        return i\n"
            "    if isinstance(i, Mv):\n"
            "        return Mv(i.rd, subst_operand(i.u, s))\n"
            "    if isinstance(i, Unpack):\n"
            "        return Unpack(i.alpha, i.rd, subst_operand(i.u, s))\n")
        found = dispatch_sites(source, "tal/subst.py")
        assert found == {("tal/subst.py", "subst_instr")}
        assert not found & ALLOWED

    def test_no_hand_written_type_grammar_outside_the_walk(self):
        found = all_sites(TYPE_CLASSES)
        unexpected = found - ALLOWED_TYPES
        assert not unexpected, (
            f"functions dispatching on several type classes: "
            f"{sorted(unexpected)}; traverse types with repro.walk")
        stale = ALLOWED_TYPES - found
        assert not stale, f"allowlisted but gone: {sorted(stale)}"

    def test_a_free_type_vars_chain_fails_the_lint(self):
        """Reintroducing one of the deleted per-type chains (here T's old
        ``_free_type_vars``) is a finding, not an allowed site."""
        source = (
            "def _free_type_vars(x):\n"
            "    if x.__class__ in _CLOSED_CLASSES:\n"
            "        return set()\n"
            "    if isinstance(x, TVar):\n"
            "        return {(KIND_ALPHA, x.name)}\n"
            "    if isinstance(x, (TExists, TRec)):\n"
            "        return free_type_vars(x.body) - {(KIND_ALPHA, x.var)}\n"
            "    if isinstance(x, StackTy):\n"
            "        return {(KIND_ZETA, x.tail)}\n")
        found = dispatch_sites(source, "tal/subst.py", TYPE_CLASSES)
        assert found == {("tal/subst.py", "_free_type_vars")}
        assert not found & ALLOWED_TYPES
        assert not dispatch_sites(source, "tal/subst.py")   # no term


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
        """The T classes an F walk crosses through are in the grammar,
        and the ``import`` among them holds the F term."""
        assert walk.CARRIERS <= set(walk.GRAMMAR)
        assert ("expr", walk.EMBED) in walk.GRAMMAR["repro.ft.syntax.Import"]

    def test_sequence_binder_kinds_are_t_kinds(self):
        from repro.tal.syntax import KIND_ALPHA, KIND_ZETA

        assert set(walk.REST_KIND.values()) == {KIND_ALPHA, KIND_ZETA}

    def test_type_variable_kinds_are_delta_kinds(self):
        from repro.tal.syntax import (
            KIND_ALPHA, KIND_EPS, KIND_FALPHA, KIND_ZETA,
        )

        assert set(walk.VAR_KIND.values()) == {
            KIND_ALPHA, KIND_EPS, KIND_FALPHA, KIND_ZETA}
        assert set(walk.BIND_KIND.values()) == {KIND_ALPHA, KIND_FALPHA}
        assert walk.F_KIND == KIND_FALPHA

    def test_every_term_class_is_in_the_grammar(self):
        from repro.f import cek  # noqa: F401  (registers its closures)
        from repro.ft import lump, syntax  # noqa: F401

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        keys = {f"{c.__module__}.{c.__qualname__}"
                for base in TERM_BASES for c in (base, *subclasses(base))
                if c.__module__.startswith("repro.")
                and dataclasses.is_dataclass(c)}
        # Machine-only forms no traversal accepts: the resumption hole
        # and the CEK closure (a registered closed value).
        outside = {"repro.ft.syntax.Hole", "repro.f.cek.Closure"}
        assert keys - outside == set(walk.GRAMMAR) - set(walk.TYPE_GRAMMAR)
        assert {"repro.ft.syntax.Import", "repro.ft.syntax.Protect"} <= keys

    def test_every_type_class_is_in_the_grammar(self):
        from repro.ft import lump, syntax  # noqa: F401

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        keys = {f"{c.__module__}.{c.__qualname__}"
                for base in TYPE_BASES for c in (base, *subclasses(base))
                if c.__module__.startswith("repro.")
                and dataclasses.is_dataclass(c)}
        assert keys == set(walk.TYPE_GRAMMAR)
        assert {"repro.ft.syntax.FStackArrow", "repro.ft.lump.FLump",
                "repro.tal.syntax.QOut"} <= keys
