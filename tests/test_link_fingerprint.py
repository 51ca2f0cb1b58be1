"""Tests for :mod:`repro.link.fingerprint` -- process-stable addresses.

The whole point of the artifact store is that a digest computed in one
process finds an artifact written by another, so these tests pin
literal digests (any accidental dependence on ``id()``, interning, dict
insertion order, or ``PYTHONHASHSEED`` would shift them) and re-derive a
digest in a fresh subprocess.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.f.syntax import App, BinOp, FArrow, FInt, IntE, Lam, Var
from repro.link import canonical_encoding, component_digest, \
    stable_fingerprint
from repro.surface.parser import parse_fexpr

DOUBLE_SRC = "lam (x: int). (x + x)"

#: Pinned content addresses.  If an intentional change to the encoding
#: or the syntax trees moves these, bump STORE_VERSION alongside --
#: old store entries are unreachable under the new addresses anyway.
PINNED_PLAIN = \
    "ad0f0ff906e349e054e78a811935d1f96de9cfa196f69e69c0a761167ba8c84c"
#: ``PINNED_DOUBLE`` is a component digest, so it also moves with the
#: component format number in ``link.build.component_digest``.
PINNED_DOUBLE = \
    "3cb39ca525df7bce0b7104cc77a6c4f17d819dfe6b884dc00f2f0f91c1505afa"


class TestCanonicalEncoding:
    def test_atoms_are_type_tagged(self):
        # True vs 1 and "1" vs 1 must encode differently.
        assert canonical_encoding(True) != canonical_encoding(1)
        assert canonical_encoding("1") != canonical_encoding(1)
        assert canonical_encoding(None) != canonical_encoding(False)

    def test_dict_order_independent(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert list(a) != list(b)       # genuinely different insertion
        assert canonical_encoding(a) == canonical_encoding(b)

    def test_set_order_independent(self):
        assert (canonical_encoding({"a", "b", "c"})
                == canonical_encoding({"c", "a", "b"}))

    def test_tuple_list_distinct(self):
        assert canonical_encoding((1, 2)) != canonical_encoding([1, 2])

    def test_dataclasses_encode_by_qualname_and_fields(self):
        enc = canonical_encoding(IntE(7))
        assert "IntE" in enc and "i7" in enc

    def test_unsupported_objects_rejected(self):
        with pytest.raises(TypeError):
            canonical_encoding(object())
        with pytest.raises(TypeError):
            canonical_encoding(lambda: None)


class TestStableFingerprint:
    def test_pinned_plain(self):
        assert stable_fingerprint(("funtal", 1, "hello")) == PINNED_PLAIN

    def test_pinned_component_digest(self):
        expr = parse_fexpr(DOUBLE_SRC)
        assert component_digest(expr, ()) == PINNED_DOUBLE

    def test_structural_not_identity(self):
        # Two separately constructed (not interned, not `is`-identical)
        # trees with equal structure share one address.
        manual = Lam((("x", FInt()),),
                     BinOp("+", Var("x"), Var("x")))
        parsed = parse_fexpr(DOUBLE_SRC)
        assert stable_fingerprint(manual) == stable_fingerprint(parsed)

    def test_distinct_terms_distinct_digests(self):
        assert (stable_fingerprint(parse_fexpr("lam (x: int). (x + x)"))
                != stable_fingerprint(parse_fexpr("lam (x: int). (x * x)")))

    def test_imports_are_part_of_the_address(self):
        expr = parse_fexpr("lam (x: int). double x")
        arrow = FArrow((FInt(),), FInt())
        with_import = component_digest(expr, (("double", arrow),))
        assert with_import != component_digest(expr, ())

    def test_import_order_irrelevant(self):
        expr = parse_fexpr("lam (x: int). f (g x)")
        arrow = FArrow((FInt(),), FInt())
        assert (component_digest(expr, (("f", arrow), ("g", arrow)))
                == component_digest(expr, (("g", arrow), ("f", arrow))))

    def test_cross_process_stability(self):
        """A fresh interpreter (fresh InternTable, fresh ids, fresh hash
        seed) derives the same address -- the store's correctness
        condition."""
        prog = (
            "from repro.link import component_digest\n"
            "from repro.surface.parser import parse_fexpr\n"
            f"print(component_digest(parse_fexpr({DOUBLE_SRC!r}), ()))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", prog], capture_output=True, text=True,
            check=True, env={"PYTHONPATH": src, "PYTHONHASHSEED": "12345"})
        assert out.stdout.strip() == PINNED_DOUBLE

    def test_application_digest_pinned_against_whole_compile(self):
        # component_digest is also what `funtal compile --store` uses,
        # so the CLI and `funtal build` share artifacts for identical
        # sources (asserted literally in test_cli_link).
        expr = App(parse_fexpr(DOUBLE_SRC), (IntE(5),))
        digest = component_digest(expr, ())
        assert len(digest) == 64 and digest != PINNED_DOUBLE
