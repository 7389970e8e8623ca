"""Tests for the result store.

Covers the acceptance scenario of the service subsystem: a sweep run
twice against the same store performs **zero** simulations the second
time and returns bit-identical stats; plus the store's own contracts —
stats stored as canonical JSON, one row per key whatever re-puts it,
a root at another schema refused, and the pinned golden-cell digest
that locks the canonical cell key.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sqlite3
from contextlib import closing

import pytest

from repro.experiments.common import collect
from repro.memory.hierarchy import HierarchyConfig
from repro.service.store import STORE_SCHEMA_VERSION, ResultStore
from repro.simulator import cache as result_cache
from repro.simulator import runner as runner_mod
from repro.simulator.config import MachineConfig
from repro.simulator.policies import POLICIES, get_policy
from repro.simulator.runner import run_benchmark
from repro.simulator.stats import SimulationStats
from repro.traces import registry
from repro.traces.ingest import IngestReport
from repro.utils import canonical_digest, canonical_json, freeze, json_digest
from repro.workloads import profiles

#: canonical key of the golden cell pinned in tests/test_golden_stats.py
#: (tatp / pdip_44 / seed 1 / 30000 instr / 6000 warmup). If this moves,
#: every existing store entry is invalidated — bump
#: ``repro.simulator.cache.RUN_KEY_VERSION`` deliberately, never by
#: accident.
GOLDEN_CELL_KEY = "88832e4e37247b5fd87a9ad35e1bcf85b2559118"

#: canonical key of a cell with an overridden MachineConfig
#: (dotty / eip_46 / seed 2 / btb_entries=4096): pins that the config
#: payload of non-default machines stays stable as MachineConfig evolves
OVERRIDE_CELL_KEY = "273c39c94db8a8e49f5e470799ef5722a741d079"


def make_stats(instructions=1000, cycles=500, **extra):
    stats = SimulationStats()
    stats.instructions = instructions
    stats.cycles = cycles
    for name, value in extra.items():
        setattr(stats, name, value)
    return stats


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "store") as s:
        yield s


@pytest.fixture
def no_local_cache(tmp_path, monkeypatch):
    """Isolate the default store so only the store passed in can hit."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_STORE", raising=False)


class TestCellKey:
    def test_golden_cell_key_pinned(self):
        key = ResultStore.cell_key("tatp", "pdip_44", 30000, 6000, seed=1)
        assert key == GOLDEN_CELL_KEY

    def test_override_config_cell_key_pinned(self):
        key = ResultStore.cell_key("dotty", "eip_46", 30000, 6000, seed=2,
                                   config=MachineConfig(btb_entries=4096))
        assert key == OVERRIDE_CELL_KEY

    def test_matches_run_key(self):
        from repro.simulator.policies import get_policy

        assert ResultStore.cell_key("noop", "baseline", 100, 10, seed=2) == \
            result_cache.run_key("noop", get_policy("baseline"), 100, 10, 2,
                                 None)


def unmemoized_run_key(benchmark, spec, instructions, warmup, seed, config):
    """The run key as the canonical digest of its whole payload, every
    part frozen afresh: what a memoized key must always equal."""
    return canonical_digest({
        "benchmark": benchmark,
        "profile": freeze(profiles.get_profile(benchmark)),
        "spec": freeze(spec),
        "instructions": instructions,
        "warmup": warmup,
        "seed": seed,
        "config": freeze(config if config is not None else MachineConfig()),
        "version": result_cache.RUN_KEY_VERSION,
    })


MEMO_CONFIGS = {
    "default": None,
    "btb_entries=4096": MachineConfig(btb_entries=4096),
    "hierarchy.l1i_size_kb=16": MachineConfig(
        hierarchy=HierarchyConfig(l1i_size_kb=16)),
}


class TestRunKeyMemo:
    """``run_key`` memoizes the frozen profile, spec and config by value;
    no hit of that memo may ever yield another payload's key."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(result_cache, "_FROZEN", {})

    @staticmethod
    def key(bench, spec, config=None):
        return result_cache.run_key(bench, spec, 30000, 6000, 2, config)

    @pytest.mark.parametrize("config", sorted(MEMO_CONFIGS))
    @pytest.mark.parametrize("bench", ["tatp", "cassandra", "trace-phase"])
    def test_every_key_is_its_payload_digest(self, bench, config):
        machine = MEMO_CONFIGS[config]
        for name, spec in POLICIES.items():
            want = unmemoized_run_key(bench, spec, 30000, 6000, 2, machine)
            # first call, repeat call, and a repeat with equal copies,
            # which only a memo keyed by value serves
            for args in ((spec, machine), (spec, machine),
                         (copy.deepcopy(spec), copy.deepcopy(machine))):
                assert self.key(bench, *args) == want, name

    def test_equal_values_of_other_types_keep_their_keys(self):
        # 4096 == 4096.0 and 1 == True, yet each freezes to other JSON
        pairs = [(MachineConfig(btb_entries=4096),
                  MachineConfig(btb_entries=4096.0)),
                 (MachineConfig(hierarchy=HierarchyConfig(itlb_enabled=True)),
                  MachineConfig(hierarchy=HierarchyConfig(itlb_enabled=1)))]
        spec = get_policy("baseline")
        for first, second in pairs:
            assert first == second
            keys = [self.key("tatp", spec, c) for c in (first, second)]
            assert keys == [unmemoized_run_key("tatp", spec, 30000, 6000, 2, c)
                            for c in (first, second)]
            assert keys[0] != keys[1]

    def test_same_name_other_pdip_overrides(self):
        base = get_policy("pdip_44")
        specs = [base,
                 dataclasses.replace(base, pdip_overrides={"use_path_info":
                                                           True}),
                 dataclasses.replace(base, pdip_overrides={"use_path_info":
                                                           False})]
        keys = [self.key("tatp", spec) for spec in specs + specs]
        assert len(set(keys)) == 3
        assert keys == [unmemoized_run_key("tatp", spec, 30000, 6000, 2, None)
                        for spec in specs + specs]

    def test_re_registered_trace_name_gets_a_new_key(self, tmp_path,
                                                     monkeypatch):
        # registrations of this test stay out of the process's catalogs
        monkeypatch.setattr(profiles, "_EXTERNAL", dict(profiles._EXTERNAL))
        monkeypatch.setattr(registry, "_SPECS", dict(registry._SPECS))
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        spec = get_policy("pdip_44")
        keys = []
        for trace in ("first", "second", "first"):
            report = IngestReport(
                source=trace + ".jsonl", format="jsonl",
                digest=canonical_digest(trace), source_sha="", created=True,
                events=10, instructions=40, downsample=None)
            registry.register_ingested("memo-trace", report, budget=1000,
                                       window=64)
            keys.append(self.key("memo-trace", spec))
            assert keys[-1] == unmemoized_run_key("memo-trace", spec, 30000,
                                                  6000, 2, None)
        assert keys[0] != keys[1]
        assert keys[2] == keys[0]


class TestPutGet:
    def test_roundtrip_bit_identical(self, store):
        stats = make_stats(30000, 31234, l1i_misses=77)
        store.put("k1", stats, meta={"benchmark": "noop",
                                     "policy": "baseline", "seed": 1})
        loaded = store.get("k1")
        assert loaded is not None
        assert loaded.to_dict() == stats.to_dict()

    def test_miss_returns_none(self, store):
        assert store.get("missing") is None
        assert "missing" not in store

    def test_contains_and_len(self, store):
        assert len(store) == 0
        store.put("k1", make_stats())
        assert "k1" in store
        assert len(store) == 1

    def test_meta_row_lifted_and_preserved(self, store):
        meta = {"benchmark": "tatp", "policy": "pdip_44", "seed": 3,
                "instructions": 30000, "warmup": 6000, "wall_time": 1.5}
        store.put("k1", make_stats(), meta=meta)
        row = store.get_row("k1")
        assert row["key"] == "k1"
        assert row["meta"] == meta
        assert store.get_row("missing") is None

    def test_telemetry_rides_along(self, store):
        store.put("k1", make_stats(), telemetry={"events": 42})
        assert store.get_telemetry("k1") == {"events": 42}
        assert store.get_telemetry("missing") is None

    def test_put_without_telemetry_keeps_existing(self, store):
        store.put("k1", make_stats(), telemetry={"events": 42})
        store.put("k1", make_stats())
        assert store.get_telemetry("k1") == {"events": 42}

    def test_reput_leaves_one_row_with_the_new_stats(self, store):
        store.put("k1", make_stats(1000, 500), meta={"label": "run"})
        store.put("k1", make_stats(1000, 777), meta={"label": "again"})
        assert len(store) == 1
        assert store.get("k1").to_dict() == make_stats(1000, 777).to_dict()
        assert store.get_row("k1")["meta"] == {"label": "again"}
        # the old stats left nothing behind: the store is one file
        names = {p.name for p in store.root.iterdir()}
        assert names <= {"store.sqlite", "store.sqlite-wal",
                         "store.sqlite-shm"}
        assert "store.sqlite" in names

    def test_reput_with_full_meta_replaces_an_empty_one(self, store):
        store.put("k1", make_stats(), meta={})
        meta = runner_mod.cell_meta("tatp", "pdip_44", 3, 30000, 6000, None,
                                    wall_time=1.5, worker="main",
                                    attempts=1, label="run")
        store.put("k1", make_stats(), meta=meta)
        assert store.get_row("k1")["meta"] == meta
        with closing(sqlite3.connect(str(store.root / "store.sqlite"))) as db:
            columns = [c[1] for c in db.execute("PRAGMA table_info(results)")]
        assert columns == ["key", "stats", "telemetry", "meta", "created"]


class TestCanonicalText:
    def test_stats_text_is_canonical_json_of_the_stats(self, store):
        stats = make_stats(1000, 500, l1i_misses=7)
        store.put("k1", stats)
        with closing(sqlite3.connect(str(store.root / "store.sqlite"))) as db:
            (text,) = db.execute(
                "SELECT stats FROM results WHERE key = 'k1'").fetchone()
        assert text == canonical_json(json.loads(text))
        assert json_digest(text) == canonical_digest(stats.to_dict())


class TestMaintenance:
    def test_info_counts(self, store):
        store.put("k1", make_stats(1, 1))
        store.put("k2", make_stats(2, 2))
        store.put_trace({"events": [[0, 1, 4]]}, source_sha="s")
        assert store.info() == {"root": str(store.root),
                                "schema": STORE_SCHEMA_VERSION,
                                "rows": 2, "traces": 1}


class TestOpenStore:
    """Root resolution of the per-process default store."""

    @pytest.fixture(autouse=True)
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_STORE", raising=False)

    def test_unset_env_roots_under_cache_dir(self, tmp_path):
        s = result_cache.open_store()
        assert s.root == tmp_path / "cache" / "store"
        assert (s.root / "store.sqlite").exists()

    def test_env_roots_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "s"))
        assert result_cache.open_store().root == tmp_path / "s"
        assert (tmp_path / "s" / "store.sqlite").exists()

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env"))
        s = result_cache.open_store(tmp_path / "flag")
        assert s.root == tmp_path / "flag"

    def test_one_connection_per_root(self, tmp_path, monkeypatch):
        first = result_cache.open_store()
        assert result_cache.open_store() is first
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "s"))
        second = result_cache.open_store()
        assert second is not first
        with pytest.raises(sqlite3.ProgrammingError):
            len(first)  # the old root's connection was closed
        assert result_cache.open_store() is second


class TestRunnerIntegration:
    def test_run_benchmark_writes_and_reads_store(self, store,
                                                  no_local_cache):
        a = run_benchmark("noop", "baseline", instructions=2000, warmup=300,
                          store=store)
        assert len(store) == 1
        key = ResultStore.cell_key("noop", "baseline", 2000, 300)
        meta = store.get_row(key)["meta"]
        assert (meta["benchmark"], meta["policy"], meta["label"]) == (
            "noop", "baseline", "run")

        def boom(*_args, **_kw):  # pragma: no cover - must not run
            raise AssertionError("second run must not simulate")

        # prove the store serves the re-run by making simulation
        # impossible
        from repro.simulator import policies as policies_mod
        original = policies_mod.build_machine
        policies_mod.build_machine = boom
        try:
            b = run_benchmark("noop", "baseline", instructions=2000,
                              warmup=300, store=store)
        finally:
            policies_mod.build_machine = original
        assert b.to_dict() == a.to_dict()

    def test_sweep_twice_zero_simulations(self, store, no_local_cache,
                                          monkeypatch):
        # the suite's grid path resolves in the default store: root it here
        monkeypatch.setenv("REPRO_STORE", str(store.root))
        policies = ["baseline", "pdip_44"]
        first = collect(policies, ["noop"], 2000, 300, n_jobs=1)
        assert len(store) == 2

        def boom(cell):  # pragma: no cover - must not run
            raise AssertionError("store re-run must not simulate: %r"
                                 % (cell,))

        monkeypatch.setattr(runner_mod, "simulate_cell", boom)
        second = collect(policies, ["noop"], 2000, 300, n_jobs=1)
        for policy in policies:
            assert (second["noop"][policy].to_dict()
                    == first["noop"][policy].to_dict())

    def test_store_hit_recorded_in_manifest(self, store, no_local_cache,
                                            monkeypatch):
        from repro.simulator.manifest import RunManifest

        monkeypatch.setenv("REPRO_STORE", str(store.root))
        collect(["baseline"], ["noop"], 2000, 300, n_jobs=1)
        monkeypatch.setattr(runner_mod, "simulate_cell", lambda cell: (
            (_ for _ in ()).throw(AssertionError("must not simulate"))))
        manifest = RunManifest(label="again")
        collect(["baseline"], ["noop"], 2000, 300, n_jobs=1,
                manifest=manifest)
        (record,) = manifest.cells
        assert record.worker == "store"
        assert record.cache_hit is True
