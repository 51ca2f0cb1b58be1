"""Lint for host recursion-limit raises in ``src/``.

The FT machine drives both languages from one loop over an explicit
control stack, so no verdict may depend on CPython's recursion limit.
The only ``sys.setrecursionlimit`` calls left guard recursion over deep
*data*, where the host recursion is the algorithm itself: pickling a
checkpoint, pickling a store payload, and folding a CEK machine value
back into a term.  A new raise anywhere else fails here.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: (module path under ``repro/``, enclosing function) of every allowed
#: raise, each guarding deep data.
ALLOWED = {
    ("resilience/checkpoint.py", "capture"),   # checkpoint pickling
    ("link/store.py", "_encode_payload"),      # store pickling
    ("link/store.py", "_decode_payload"),      # store unpickling
    ("f/cek.py", "_reify_limited"),            # CEK value reification
}


def _raise_sites(source: str, rel: str):
    """(``rel``, enclosing function) of every setrecursionlimit call in
    ``source``, however ``sys`` or the function was imported."""
    tree = ast.parse(source, filename=rel)
    sites = set()

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                fn = child.func
                name = fn.attr if isinstance(fn, ast.Attribute) else \
                    fn.id if isinstance(fn, ast.Name) else None
                if name == "setrecursionlimit":
                    sites.add((rel, func))
            walk(child, inner)

    walk(tree, "<module>")
    return sites


class TestRecursionLimitRaises:
    def test_only_deep_data_raises_the_limit(self):
        found = set()
        for path in sorted(SRC.rglob("*.py")):
            found |= _raise_sites(path.read_text(),
                                  path.relative_to(SRC).as_posix())
        unexpected = found - ALLOWED
        assert not unexpected, (
            f"sys.setrecursionlimit raised at {sorted(unexpected)}: "
            "evaluation must not depend on the host recursion limit; "
            "only deep-data pickling/reification may raise it")
        stale = ALLOWED - found
        assert not stale, f"allowlisted but gone: {sorted(stale)}"

    def test_lint_sees_aliased_raises(self):
        source = (
            "import sys as _sys\n"
            "from sys import setrecursionlimit\n"
            "def run():\n"
            "    _sys.setrecursionlimit(10_000)\n"
            "class C:\n"
            "    def go(self):\n"
            "        setrecursionlimit(10_000)\n")
        assert _raise_sites(source, "x.py") == {("x.py", "run"),
                                                ("x.py", "go")}
