"""Provenance manifest tests."""

import json

from repro.obs.provenance import SCHEMA, build_manifest, write_manifest


class TestManifest:
    def test_required_sections_present(self):
        m = build_manifest(experiment="figure4", config={"seed": 3})
        assert m["schema"] == SCHEMA
        assert m["experiment"] == "figure4"
        assert m["config"] == {"seed": 3}
        assert m["versions"]["python"]
        assert m["versions"]["repro"]
        assert m["platform"]["system"]
        # ISO-8601 UTC timestamp, e.g. 2026-08-08T21:14:58+00:00
        assert m["created_at"].endswith("+00:00")

    def test_optional_sections_only_when_given(self):
        bare = build_manifest(experiment="x", config={})
        assert "wall_time_s" not in bare and "trace" not in bare
        full = build_manifest(
            experiment="x", config={}, wall_time_s=1.5,
            trace={"path": "t.json"}, metrics="m.txt")
        assert full["wall_time_s"] == 1.5
        assert full["trace"] == {"path": "t.json"}
        assert full["metrics"] == "m.txt"

    def test_write_manifest_is_stable_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = build_manifest(experiment="x", config={"b": 1, "a": 2})
        write_manifest(path, manifest)
        doc = json.loads(path.read_text())
        assert doc == manifest
        # sorted keys make the file diffable across runs
        keys = list(json.loads(path.read_text()).keys())
        assert keys == sorted(keys)
