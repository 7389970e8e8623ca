"""Tests for the cell runner and the default result store."""

import pytest

from repro.experiments.common import collect
from repro.simulator import cache as result_cache
from repro.simulator.cache import ResultStore
from repro.simulator.config import MachineConfig
from repro.simulator.policies import get_policy
from repro.simulator.runner import run_benchmark, speedup
from repro.simulator.stats import SimulationStats
from repro.utils import geomean


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_STORE", raising=False)
    return tmp_path


class TestRunKey:
    def test_stable(self):
        a = result_cache.run_key("noop", get_policy("baseline"), 100, 10, 1,
                                 None)
        b = result_cache.run_key("noop", get_policy("baseline"), 100, 10, 1,
                                 None)
        assert a == b

    def test_differs_by_policy(self):
        a = result_cache.run_key("noop", get_policy("baseline"), 100, 10, 1,
                                 None)
        b = result_cache.run_key("noop", get_policy("pdip_44"), 100, 10, 1,
                                 None)
        assert a != b

    def test_differs_by_budget(self):
        a = result_cache.run_key("noop", get_policy("baseline"), 100, 10, 1,
                                 None)
        b = result_cache.run_key("noop", get_policy("baseline"), 200, 10, 1,
                                 None)
        assert a != b

    def test_differs_by_config(self):
        a = result_cache.run_key("noop", get_policy("baseline"), 100, 10, 1,
                                 None)
        b = result_cache.run_key("noop", get_policy("baseline"), 100, 10, 1,
                                 MachineConfig(btb_entries=4096))
        assert a != b

    def test_default_config_matches_none(self):
        a = result_cache.run_key("noop", get_policy("baseline"), 100, 10, 1,
                                 None)
        b = result_cache.run_key("noop", get_policy("baseline"), 100, 10, 1,
                                 MachineConfig())
        assert a == b


class TestStoreLoad:
    def test_roundtrip(self, tmp_cache):
        stats = SimulationStats()
        stats.instructions = 1234
        stats.cycles = 987
        stats.l1i_misses = 55
        result_cache.store("abc", stats)
        loaded = result_cache.load("abc")
        assert loaded.instructions == 1234
        assert loaded.cycles == 987
        assert loaded.l1i_misses == 55

    def test_missing_key(self, tmp_cache):
        assert result_cache.load("nope") is None


class TestRunBenchmark:
    def test_cache_hit_reproduces(self, tmp_cache, store_lookups):
        key = ResultStore.cell_key("noop", "baseline", 3000, 500)
        a = run_benchmark("noop", "baseline", instructions=3000, warmup=500)
        store = result_cache.open_store()
        assert (len(store), store_lookups) == (1, [(key, False)])
        b = run_benchmark("noop", "baseline", instructions=3000, warmup=500)
        assert a.to_dict() == b.to_dict()
        # one more lookup, a hit, and no new row: nothing simulated
        assert (len(store), store_lookups) == (1, [(key, False),
                                                   (key, True)])
        assert not list(tmp_cache.rglob("*.tmp"))

    def test_no_cache_flag(self, tmp_cache):
        run_benchmark("noop", "baseline", instructions=2000, warmup=300,
                      use_cache=False)
        assert len(result_cache.open_store()) == 0

    def test_key_computed_only_for_a_store(self, tmp_cache, monkeypatch):
        calls = []
        key = result_cache.run_key

        def counted(*args):
            calls.append(args)
            return key(*args)

        monkeypatch.setattr(result_cache, "run_key", counted)
        cell = dict(instructions=2000, warmup=300)
        # a pool worker's call: no lookup, no write, so no key
        run_benchmark("noop", "baseline", use_cache=False, **cell)
        assert calls == []
        run_benchmark("noop", "baseline", **cell)
        assert len(calls) == 1

    def test_no_cache_writes_only_a_store_passed_in(self, tmp_cache):
        with ResultStore(tmp_cache / "other") as other:
            run_benchmark("noop", "baseline", instructions=2000, warmup=300,
                          use_cache=False, store=other)
            assert len(other) == 1
        assert len(result_cache.open_store()) == 0


class TestSuite:
    def test_grid_shape(self, tmp_cache):
        res = collect(["baseline", "pdip_44"], ["noop"], instructions=2500,
                      warmup=400)
        assert set(res.keys()) == {"noop"}
        assert set(res["noop"].keys()) == {"baseline", "pdip_44"}

    def test_speedup(self):
        a = SimulationStats()
        a.instructions, a.cycles = 1000, 400
        b = SimulationStats()
        b.instructions, b.cycles = 1000, 500
        assert speedup(a, b) == pytest.approx(1.25)

    def test_speedup_zero_baseline(self):
        with pytest.raises(ValueError):
            speedup(SimulationStats(), SimulationStats())
