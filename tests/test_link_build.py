"""Tests for :mod:`repro.link.build` -- manifests, incremental builds,
and content-hash-amortized translation validation.

The incremental contract (the paper's separate-compilation story made
operational): editing one component of an N-component program recompiles
exactly that component; everything else is served from the store.
"""

import json

import pytest

from repro import obs
from repro.errors import LinkError, ParseError
from repro.f.syntax import FArrow, FInt, IntE
from repro.ft.machine import evaluate_ft
from repro.link import (
    ArtifactStore, BUILTIN_COMPONENTS, TIER_HANDWRITTEN, build_and_link,
    build_manifest, parse_manifest,
)
from repro.link.build import component_digest
from repro.link.fingerprint import stable_fingerprint
from repro.surface import parse_program

BASE = {
    "components": {
        "double": "lam (x: int). (x + x)",
        "quad": "lam (x: int). double (double x)",
        "fact": {"builtin": "fact-t"},
    },
    "main": "quad (fact 3)",
}


def manifest(**overrides):
    data = {"components": dict(BASE["components"]), "main": BASE["main"]}
    data["components"].update(overrides)
    return parse_manifest(json.dumps(data))


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestParseManifest:
    def test_roundtrip(self):
        m = manifest()
        assert [n for n, _ in m.components] == ["double", "quad", "fact"]

    def test_source_object_form(self):
        m = parse_manifest(json.dumps({
            "components": {"id": {"source": "lam (x: int). x"}},
            "main": "id 1"}))
        assert len(m.components) == 1

    @pytest.mark.parametrize("text, msg", [
        ("not json {", "not valid JSON"),
        ("[1, 2]", "JSON object"),
        ('{"components": {"a": "1"}, "main": "a", "x": 1}', "unknown"),
        ('{"main": "1"}', "components"),
        ('{"components": {}, "main": "1"}', "components"),
        ('{"components": {"a": "1"}}', "main"),
        ('{"components": {"a": {"builtin": "nope"}}, "main": "a"}',
         "unknown builtin"),
        ('{"components": {"a": 7}, "main": "a"}', "source string"),
    ])
    def test_structural_errors(self, text, msg):
        with pytest.raises(LinkError, match=msg):
            parse_manifest(text)

    def test_bad_component_syntax_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_manifest(json.dumps(
                {"components": {"a": "lam (x:"}, "main": "a 1"}))

    def test_builtins_registry(self):
        assert "fact-t" in BUILTIN_COMPONENTS
        assert "fact-f" in BUILTIN_COMPONENTS

    def test_unknown_free_var(self):
        with pytest.raises(LinkError, match="naming no component"):
            build_manifest(parse_manifest(json.dumps({
                "components": {"a": "lam (x: int). ghost x"},
                "main": "a 1"})))

    def test_self_import(self):
        with pytest.raises(LinkError, match="imports itself"):
            build_manifest(parse_manifest(json.dumps({
                "components": {"a": "lam (x: int). a x"},
                "main": "a 1"})))


class TestIncrementalBuild:
    def test_cold_build_compiles_everything(self, store):
        report = build_manifest(manifest(), store)
        assert sorted(report.recompiled) == ["double", "fact", "quad"]
        assert report.cached == []
        assert len(store) == 3

    def test_warm_build_compiles_nothing(self, store):
        build_manifest(manifest(), store)
        report = build_manifest(manifest(), store)
        assert report.recompiled == []
        assert sorted(report.cached) == ["double", "fact", "quad"]

    def test_editing_one_component_recompiles_exactly_it(self, store):
        build_manifest(manifest(), store)
        edited = manifest(quad="lam (x: int). double (double (x + 0))")
        report = build_manifest(edited, store)
        assert report.recompiled == ["quad"]
        assert sorted(report.cached) == ["double", "fact"]

    def test_type_preserving_dependency_edit_spares_dependents(self, store):
        """quad's digest covers double's *interface*, not its body: a
        body-only edit to double leaves quad cached."""
        build_manifest(manifest(), store)
        edited = manifest(double="lam (x: int). (x * 2)")
        report = build_manifest(edited, store)
        assert report.recompiled == ["double"]
        assert "quad" in report.cached

    def test_two_names_share_one_artifact(self, store):
        m = parse_manifest(json.dumps({
            "components": {"a": "lam (x: int). (x + x)",
                           "b": "lam (x: int). (x + x)"},
            "main": "a (b 1)"}))
        report = build_manifest(m, store)
        digests = {r.name: r.digest for r in report.records}
        assert digests["a"] == digests["b"]
        assert report.recompiled == ["a"]       # b rides the same artifact
        assert report.cached == ["b"]

    def test_digest_changes_with_the_code_format(self):
        # Format 1 artifacts hold code whose closures cross the boundary
        # on every call; a warm store must not serve them for this body.
        body = parse_program("lam (x: int). (x + x)")
        imports = (("double", FArrow((FInt(),), FInt())),)
        digest = component_digest(body, imports)
        assert digest == component_digest(body, imports)
        assert digest != stable_fingerprint(
            ("funtal.link.component", 1, body, imports, True))

    def test_warm_build_links_and_runs(self, store):
        build_manifest(manifest(), store)
        report, linked = build_and_link(manifest(), store)
        assert report.recompiled == []
        value, _ = evaluate_ft(linked.program)
        assert value == IntE(24)

    def test_storeless_build_works(self):
        report = build_manifest(manifest())
        assert sorted(report.recompiled) == ["double", "fact", "quad"]

    def test_build_metrics(self, store):
        obs.disable()
        obs.reset()
        obs.enable(record=False)
        try:
            build_manifest(manifest(), store)
            build_manifest(manifest(), store)
            counters = obs.OBS.metrics.snapshot()["counters"]
            assert counters.get("link.build.compiled") == 3
            assert counters.get("link.build.store_hit") == 3
            assert counters.get("link.store.put", 0) >= 3
        finally:
            obs.disable()
            obs.reset()

    def test_report_json(self, store):
        report = build_manifest(manifest(), store)
        data = report.to_json()
        assert {c["name"] for c in data["components"]} \
            == {"double", "quad", "fact"}
        quad = next(c for c in data["components"] if c["name"] == "quad")
        assert quad["imports"] == ["double: (int) -> int"]
        assert quad["tier"] == "general"


class TestCachedValidation:
    def test_receipts_amortize_validation(self, store):
        first = build_manifest(manifest(), store, validate=True)
        for rec in first.records:
            if rec.tier == TIER_HANDWRITTEN:
                assert rec.validation is None   # statically checked
            else:
                assert rec.validation["ok"]
                assert not rec.validation_cached

        obs.disable()
        obs.reset()
        obs.enable(record=False)
        try:
            second = build_manifest(manifest(), store, validate=True)
            counters = obs.OBS.metrics.snapshot()["counters"]
            assert counters.get("compile.validate.cache_hit") == 2
        finally:
            obs.disable()
            obs.reset()
        for rec in second.records:
            if rec.tier != TIER_HANDWRITTEN:
                assert rec.validation_cached
                assert rec.validation["ok"]

    def test_receipt_survives_artifact_cache(self, store):
        """A cached *artifact* still gets its validation from the
        receipt, not a re-run (store hit on both kinds)."""
        build_manifest(manifest(), store, validate=True)
        report = build_manifest(manifest(), store, validate=True)
        assert report.recompiled == []
        assert all(r.validation_cached for r in report.records
                   if r.tier != TIER_HANDWRITTEN)
