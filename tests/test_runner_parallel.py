"""Tests for the grid path behind ``repro suite`` and the figures
(``experiments.common.collect`` over the sweep executor's pool):
serial/parallel equivalence, layout memoization, retry behavior,
determinism, and manifest emission."""

import os
import re

import pytest

from repro.cli import main
from repro.experiments.common import collect
from repro.simulator import manifest as manifest_mod
from repro.simulator import runner
from repro.simulator.config import config_hash
from repro.simulator.runner import (
    DEFAULT_RETRIES,
    clear_layout_cache,
    get_layout,
    resolve_jobs,
    run_benchmark,
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


def grid(policies, benchmarks, jobs, manifest=None, **budget):
    return collect(policies, benchmarks, seed=1, n_jobs=jobs,
                   manifest=manifest, **dict(GRID, **budget))


def _assert_grids_identical(a, b):
    assert list(a) == list(b)
    for bench in a:
        assert list(a[bench]) == list(b[bench])
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
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        serial = grid(POLICIES, BENCHES, jobs=1)

        # cold store: every cell simulated in a worker process
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "par"))
        cold_manifest = manifest_mod.RunManifest(jobs=2)
        cold = grid(POLICIES, BENCHES, jobs=2, manifest=cold_manifest)
        _assert_grids_identical(serial, cold)
        assert all(c.worker.startswith("pid:") for c in cold_manifest.cells)

        # warm store: every cell served from it
        warm_manifest = manifest_mod.RunManifest(jobs=2)
        warm = grid(POLICIES, BENCHES, jobs=2, manifest=warm_manifest)
        _assert_grids_identical(serial, warm)
        assert all(c.worker == "store" for c in warm_manifest.cells)

    def test_serial_is_parallel_with_one_job(self, tmp_cache):
        manifest = manifest_mod.RunManifest()
        res = grid(POLICIES, ["noop"], jobs=1, manifest=manifest)
        assert list(res["noop"]) == POLICIES
        # one job runs every cell in this process, through the same pool
        # code path and the same manifest records
        assert [c.worker for c in manifest.cells] == ["main", "main"]
        assert [c.attempts for c in manifest.cells] == [1, 1]


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
        grid(["baseline", "2x_il1", "emissary"], ["noop"], jobs=1)
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
        real = runner.simulate_cell
        failures = {"left": 1}

        def flaky(cell):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("transient worker failure")
            return real(cell)

        monkeypatch.setattr(runner, "simulate_cell", flaky)
        manifest = manifest_mod.RunManifest(label="retry-test")
        res = grid(["baseline"], ["noop"], jobs=1, manifest=manifest)
        assert res["noop"]["baseline"].instructions > 0
        (record,) = manifest.cells
        assert record.attempts == 2
        assert record.status == "ok" and not record.cache_hit

    def test_permanent_failure_raises_after_budget(self, tmp_cache,
                                                   monkeypatch):
        attempts = {"n": 0}

        def broken(cell):
            attempts["n"] += 1
            raise RuntimeError("permanent failure")

        monkeypatch.setattr(runner, "simulate_cell", broken)
        monkeypatch.setattr(runner, "DEFAULT_BACKOFF_S", 0.0)
        manifest = manifest_mod.RunManifest(label="fail-test")
        with pytest.raises(RuntimeError,
                           match=r"^1 grid cell\(s\) failed: noop "
                                 r"\(baseline\): .*permanent failure"):
            grid(["baseline"], ["noop"], jobs=1, manifest=manifest)
        assert attempts["n"] == DEFAULT_RETRIES + 1
        # recorded before the error was raised
        (record,) = manifest.cells
        assert (record.status, record.attempts) == ("failed",
                                                    DEFAULT_RETRIES + 1)
        assert "permanent failure" in record.error
        assert record.stats is None


class TestGridDedup:
    def test_duplicate_cells_simulate_once(self, tmp_cache, monkeypatch):
        real = runner.simulate_cell
        simulated = []

        def counting(cell):
            simulated.append(cell)
            return real(cell)

        monkeypatch.setattr(runner, "simulate_cell", counting)
        manifest = manifest_mod.RunManifest(label="dedup-test")
        res = grid(["baseline", "baseline"], ["noop"], jobs=1,
                   manifest=manifest)
        # the duplicate slot collapses in the plan: one simulation, one
        # manifest record, one result
        assert list(res["noop"]) == ["baseline"]
        assert len(simulated) == 1
        (record,) = manifest.cells
        assert not record.cache_hit and record.wall_time > 0

    def test_warm_cells_not_resimulated(self, tmp_cache, monkeypatch):
        grid(POLICIES, ["noop"], jobs=1)
        monkeypatch.setattr(runner, "simulate_cell", lambda cell: (
            (_ for _ in ()).throw(AssertionError("must not simulate"))))
        manifest = manifest_mod.RunManifest(label="warm-test")
        grid(POLICIES, ["noop"], jobs=1, manifest=manifest)
        assert len(manifest.cells) == len(POLICIES)
        assert all(c.cache_hit for c in manifest.cells)
        assert all(c.worker == "store" for c in manifest.cells)
        assert all((c.attempts, c.wall_time) == (0, 0.0)
                   for c in manifest.cells)


class TestParallelSpeedup:
    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="speedup measurement needs >= 4 cores")
    def test_cold_grid_2x_faster_with_4_jobs(self, tmp_path, monkeypatch):
        import time

        monkeypatch.delenv("REPRO_STORE", raising=False)
        budget = dict(instructions=30_000, warmup=6_000)
        benches = ["noop", "tatp", "voter", "smallbank"]
        policies = ["baseline", "pdip_44", "eip_46"]

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        t0 = time.perf_counter()
        serial = grid(policies, benches, jobs=1, **budget)
        serial_s = time.perf_counter() - t0

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "par"))
        clear_layout_cache()
        t0 = time.perf_counter()
        par = grid(policies, benches, jobs=4, **budget)
        parallel_s = time.perf_counter() - t0

        _assert_grids_identical(serial, par)
        assert serial_s / parallel_s >= 2.0, (serial_s, parallel_s)


class TestManifestEmission:
    def test_every_suite_run_writes_a_manifest(self, tmp_cache, capsys):
        argv = ["suite", "--benchmarks", "noop", "--policies", "baseline",
                "--jobs", "1", "--instructions", str(GRID["instructions"]),
                "--warmup", str(GRID["warmup"])]
        assert main(argv) == 0
        # the path printed is the one this run wrote
        (printed,) = re.findall(r"^manifest: (.+)$",
                                capsys.readouterr().out, re.MULTILINE)
        assert printed == str(manifest_mod.latest())
        data = manifest_mod.load(printed)
        assert data["schema"] == manifest_mod.SCHEMA_VERSION
        assert (data["label"], data["jobs"]) == ("suite", 1)
        cells = data["cells"]
        assert [c["benchmark"] for c in cells] == ["noop"]
        record = cells[0]
        for field in ("policy", "seed", "key", "config_hash", "cache_hit",
                      "wall_time", "worker", "attempts", "status", "stats",
                      "telemetry"):
            assert field in record
        assert record["config_hash"] == config_hash(None)
        assert data["summary"]["cache_misses"] == 1

        assert main(argv) == 0
        (again,) = re.findall(r"^manifest: (.+)$",
                              capsys.readouterr().out, re.MULTILINE)
        assert again != printed
        (warm,) = manifest_mod.load(again)["cells"]
        assert (warm["cache_hit"], warm["worker"]) == (True, "store")
        assert warm["stats"] == record["stats"]

    def test_fresh_cells_carry_telemetry_summaries(self, tmp_cache,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        cold = manifest_mod.RunManifest(jobs=2)
        grid(POLICIES, ["noop"], jobs=2, manifest=cold)
        assert all(c.worker.startswith("pid:") and c.telemetry
                   for c in cold.cells)
        warm = manifest_mod.RunManifest(jobs=2)
        grid(POLICIES, ["noop"], jobs=2, manifest=warm)
        assert all(c.cache_hit and c.telemetry is None for c in warm.cells)
