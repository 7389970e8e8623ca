"""Tests for the parallel suite runner: serial/parallel equivalence,
layout memoization, retry behavior, determinism, and manifest emission."""

import os
from pathlib import Path

import pytest

from repro.simulator import manifest as manifest_mod
from repro.simulator import runner
from repro.simulator.runner import (
    clear_layout_cache,
    get_layout,
    resolve_jobs,
    run_benchmark,
    run_suite,
    run_suite_parallel,
)

GRID = dict(instructions=3000, warmup=500)
POLICIES = ["baseline", "pdip_44"]
BENCHES = ["noop", "tatp"]


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
    return tmp_path


def _assert_grids_identical(a, b):
    assert set(a) == set(b)
    for bench in a:
        assert set(a[bench]) == set(b[bench])
        for policy in a[bench]:
            assert a[bench][policy].to_dict() == b[bench][policy].to_dict(), \
                (bench, policy)


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(None, default=2) == 7

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None, default=4) == 4

    def test_floor_of_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1

    def test_garbage_env_names_the_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)


class TestEquivalence:
    def test_parallel_matches_serial_cold_and_warm(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = run_suite(POLICIES, benchmarks=BENCHES, **GRID)

        # cold store: every cell simulated in a worker process
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "par"))
        cold = run_suite_parallel(POLICIES, benchmarks=BENCHES, jobs=2,
                                  **GRID)
        _assert_grids_identical(serial, cold)

        # warm store: every cell served from it
        warm = run_suite_parallel(POLICIES, benchmarks=BENCHES, jobs=2,
                                  **GRID)
        _assert_grids_identical(serial, warm)

    def test_serial_is_parallel_with_one_job(self, tmp_cache):
        res = run_suite(POLICIES, benchmarks=["noop"], **GRID)
        assert set(res["noop"]) == set(POLICIES)


class TestLayoutMemoization:
    def test_same_object_for_same_key(self):
        clear_layout_cache()
        assert get_layout("noop", seed=3) is get_layout("noop", seed=3)

    def test_distinct_across_seeds_and_benchmarks(self):
        clear_layout_cache()
        assert get_layout("noop", seed=1) is not get_layout("noop", seed=2)
        assert get_layout("noop", seed=1) is not get_layout("tatp", seed=1)

    def test_suite_generates_layout_once_per_benchmark(self, tmp_cache,
                                                       monkeypatch):
        clear_layout_cache()
        calls = []
        real = runner.generate_layout

        def counting(profile, seed=0):
            calls.append((profile.name, seed))
            return real(profile, seed=seed)

        monkeypatch.setattr(runner, "generate_layout", counting)
        run_suite(["baseline", "2x_il1", "emissary"], benchmarks=["noop"],
                  **GRID)
        assert calls == [("noop", 1)]
        clear_layout_cache()


class TestDeterminism:
    def test_same_seed_identical_stats(self, tmp_cache):
        a = run_benchmark("noop", "baseline", seed=7, use_cache=False,
                          **GRID)
        b = run_benchmark("noop", "baseline", seed=7, use_cache=False,
                          **GRID)
        assert a.ipc == b.ipc
        assert a.l1i_mpki == b.l1i_mpki
        assert a.to_dict() == b.to_dict()

    def test_same_seed_identical_after_layout_cache_clear(self, tmp_cache):
        clear_layout_cache()
        a = run_benchmark("tatp", "pdip_44", seed=5, use_cache=False, **GRID)
        clear_layout_cache()
        b = run_benchmark("tatp", "pdip_44", seed=5, use_cache=False, **GRID)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_different_layout(self):
        shape = lambda l: [(b.bid, b.addr, b.num_instructions)
                           for b in l.blocks]
        clear_layout_cache()
        assert (shape(get_layout("noop", seed=1))
                != shape(get_layout("noop", seed=2)))


class TestRetries:
    def test_transient_failure_retried_serial(self, tmp_cache, monkeypatch):
        real = runner._simulate_cell
        failures = {"left": 1}

        def flaky(cell):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("transient worker failure")
            return real(cell)

        monkeypatch.setattr(runner, "_simulate_cell", flaky)
        manifest = manifest_mod.RunManifest(label="retry-test")
        res = run_suite_parallel(["baseline"], benchmarks=["noop"], jobs=1,
                                 manifest=manifest, **GRID)
        assert res["noop"]["baseline"].instructions > 0
        retried = [c for c in manifest.cells if c.attempts == 2]
        assert len(retried) == 1
        assert retried[0].status == "ok"

    def test_permanent_failure_raises_after_budget(self, tmp_cache,
                                                   monkeypatch):
        attempts = {"n": 0}

        def broken(cell):
            attempts["n"] += 1
            raise RuntimeError("permanent failure")

        monkeypatch.setattr(runner, "_simulate_cell", broken)
        manifest = manifest_mod.RunManifest(label="fail-test")
        with pytest.raises(RuntimeError, match="failed after 2 attempt"):
            run_suite_parallel(["baseline"], benchmarks=["noop"], jobs=1,
                               retries=1, manifest=manifest, **GRID)
        assert attempts["n"] == 2
        assert [c.status for c in manifest.cells] == ["failed"]


class TestGridDedup:
    def test_duplicate_cells_simulate_once(self, tmp_cache):
        manifest = manifest_mod.RunManifest(label="dedup-test")
        res = run_suite_parallel(["baseline", "baseline"],
                                 benchmarks=["noop"], jobs=1,
                                 manifest=manifest, **GRID)
        # both grid slots filled from one simulation
        assert res["noop"]["baseline"].instructions > 0
        simulated = [c for c in manifest.cells if not c.cache_hit]
        assert len([c for c in simulated if c.wall_time > 0]) == 1

    def test_warm_cells_not_resimulated(self, tmp_cache):
        run_suite_parallel(POLICIES, benchmarks=["noop"], jobs=1, **GRID)
        manifest = manifest_mod.RunManifest(label="warm-test")
        run_suite_parallel(POLICIES, benchmarks=["noop"], jobs=1,
                           manifest=manifest, **GRID)
        assert all(c.cache_hit for c in manifest.cells)
        assert all(c.worker == "store" for c in manifest.cells)


class TestParallelSpeedup:
    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="speedup measurement needs >= 4 cores")
    def test_cold_grid_2x_faster_with_4_jobs(self, tmp_path, monkeypatch):
        import time

        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
        grid = dict(instructions=30_000, warmup=6_000)
        benches = ["noop", "tatp", "voter", "smallbank"]
        policies = ["baseline", "pdip_44", "eip_46"]

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        t0 = time.perf_counter()
        serial = run_suite(policies, benchmarks=benches, **grid)
        serial_s = time.perf_counter() - t0

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "par"))
        clear_layout_cache()
        t0 = time.perf_counter()
        par = run_suite_parallel(policies, benchmarks=benches, jobs=4,
                                 **grid)
        parallel_s = time.perf_counter() - t0

        _assert_grids_identical(serial, par)
        assert serial_s / parallel_s >= 2.0, (serial_s, parallel_s)


class TestManifestEmission:
    def test_every_suite_run_writes_a_manifest(self, tmp_cache):
        run_suite(["baseline"], benchmarks=["noop"], **GRID)
        path = manifest_mod.latest()
        assert path is not None
        data = manifest_mod.load(path)
        assert data["schema"] == manifest_mod.SCHEMA_VERSION
        cells = data["cells"]
        assert [c["benchmark"] for c in cells] == ["noop"]
        record = cells[0]
        for field in ("policy", "seed", "key", "config_hash", "cache_hit",
                      "wall_time", "worker", "attempts", "status"):
            assert field in record
        assert data["summary"]["cache_misses"] == 1

    def test_disabled_by_env(self, tmp_cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_MANIFEST", "1")
        run_suite(["baseline"], benchmarks=["noop"], **GRID)
        assert manifest_mod.latest() is None
