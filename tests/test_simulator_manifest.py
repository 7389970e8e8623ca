"""Tests for the run-manifest/telemetry module."""

import json

import pytest

from repro.simulator import manifest as manifest_mod
from repro.simulator.config import MachineConfig, config_hash
from repro.simulator.manifest import CellRecord, RunManifest


@pytest.fixture
def tmp_manifests(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
    return tmp_path


def _record(benchmark="noop", policy="baseline", cache_hit=False,
            wall_time=0.5, worker="main", attempts=1, status="ok"):
    return CellRecord(benchmark=benchmark, policy=policy, seed=1,
                      instructions=1000, warmup=100, key="k" + policy,
                      config_hash="abc", cache_hit=cache_hit,
                      wall_time=wall_time, worker=worker,
                      attempts=attempts, status=status)


class TestConfigHash:
    def test_none_matches_default(self):
        assert config_hash(None) == config_hash(MachineConfig())

    def test_differs_for_non_default(self):
        assert (config_hash(None)
                != config_hash(MachineConfig(btb_entries=4096)))


class TestSummary:
    def test_counts(self):
        m = RunManifest(jobs=2)
        m.add(_record(cache_hit=True, wall_time=0.0, worker="cache"))
        m.add(_record(policy="pdip_44", wall_time=1.5, worker="pid:10"))
        m.add(_record(policy="eip_46", wall_time=0.5, worker="pid:11",
                      attempts=3))
        s = m.summary()
        assert s["cells"] == 3
        assert s["cache_hits"] == 1
        assert s["cache_misses"] == 2
        assert s["hit_rate"] == pytest.approx(1 / 3)
        assert s["retries"] == 2
        assert s["sim_wall_time_s"] == pytest.approx(2.0)
        assert s["max_cell_time_s"] == pytest.approx(1.5)
        assert s["workers"] == {"pid:10": 1, "pid:11": 1}

    def test_empty(self):
        s = RunManifest().summary()
        assert s["cells"] == 0
        assert s["hit_rate"] == 0.0
        assert s["max_cell_time_s"] == 0.0


class TestWriteLoad:
    def test_roundtrip(self, tmp_manifests):
        m = RunManifest(label="unit", jobs=4)
        m.add(_record())
        path = m.write()
        assert path is not None and path.exists()
        data = manifest_mod.load(path)
        assert data["schema"] == manifest_mod.SCHEMA_VERSION
        assert data["label"] == "unit"
        assert data["jobs"] == 4
        assert data["cells"][0]["benchmark"] == "noop"
        assert data["summary"]["cells"] == 1

    def test_two_writes_in_one_second_keep_both(self, tmp_manifests):
        # a figure that runs one grid per config writes several
        # manifests from one process within the same second
        first, second = RunManifest(label="a"), RunManifest(label="b")
        second.started = first.started
        paths = [first.write(), second.write()]
        assert sorted(tmp_manifests.iterdir()) == sorted(paths)
        assert [manifest_mod.load(p)["label"] for p in paths] == ["a", "b"]

    def test_latest_picks_newest(self, tmp_manifests):
        first = RunManifest(label="first")
        first.write(tmp_manifests / "run-1.json")
        second = RunManifest(label="second")
        second.write(tmp_manifests / "run-2.json")
        # force distinct mtimes regardless of filesystem resolution
        import os
        os.utime(tmp_manifests / "run-1.json", (1, 1))
        latest = manifest_mod.latest()
        assert latest == tmp_manifests / "run-2.json"

    def test_latest_empty_dir(self, tmp_manifests):
        assert manifest_mod.latest() is None

    def test_explicit_path(self, tmp_manifests):
        target = tmp_manifests / "sub" / "my.json"
        m = RunManifest()
        assert m.write(target) == target
        assert (json.loads(target.read_text())["schema"]
                == manifest_mod.SCHEMA_VERSION)


class TestRenderSummary:
    def test_mentions_key_numbers(self, tmp_manifests):
        m = RunManifest(label="render", jobs=2)
        m.add(_record(cache_hit=True, wall_time=0.0, worker="cache"))
        m.add(_record(policy="pdip_44", wall_time=1.25, worker="pid:42"))
        text = manifest_mod.render_summary(m.to_dict())
        assert "render" in text
        assert "jobs=2" in text
        assert "hits 1 / misses 1" in text
        assert "pid:42:1" in text

    def test_handles_loaded_json(self, tmp_manifests):
        m = RunManifest(label="loaded")
        m.add(_record())
        path = m.write()
        text = manifest_mod.render_summary(manifest_mod.load(path))
        assert "loaded" in text


class TestManifestDir:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "mm"))
        assert manifest_mod.manifest_dir() == tmp_path / "mm"

    def test_defaults_under_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert manifest_mod.manifest_dir() == tmp_path / "manifests"
