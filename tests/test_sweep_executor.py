"""Incremental sweep execution: warm skips, dirty sets, state, reports.

The two tests ISSUE-level acceptance hangs on live here:

* ``test_warm_rerun_performs_zero_simulations`` — a second run of an
  unchanged sweep resolves every cell from the durable store: counted
  ``ResultStore.get`` calls and an unchanged row count prove each cell
  cost exactly one index lookup and zero simulations.
* ``test_config_edit_reexecutes_exactly_dirty_cells`` — flipping one
  MachineConfig field re-runs only the cells whose run keys it touched;
  every other cell stays warm.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.cli import main
from repro.service.store import ResultStore
from repro.simulator import cache as result_cache
from repro.simulator import manifest
from repro.simulator.runner import run_benchmark
from repro.sweeps import (
    compile_spec,
    load_state,
    parse_spec,
    run_sweep,
    sweep_state_path,
)

SPEC = {
    "name": "exec",
    "axes": {
        "benchmark": ["noop", "tatp"],
        "policy": ["baseline", "pdip_44"],
    },
    "defaults": {"instructions": 2000, "warmup": 300},
}


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    """Isolated default store; returns a fresh store."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    return ResultStore(tmp_path / "store")


def plan_for(data=SPEC, **edits):
    merged = json.loads(json.dumps(data))
    for key, value in edits.items():
        merged[key] = value
    return compile_spec(parse_spec(merged))


class TestIncremental:
    def test_cold_run_executes_everything(self, sandbox):
        plan = plan_for()
        report = run_sweep(plan, store=sandbox, jobs=2, state_path="")
        assert report.counts == {"total": 4, "store": 0,
                                 "executed": 4, "failed": 0}
        # every cell landed in the store under its plan key
        for cell in plan.cells:
            assert cell.key in sandbox

    def test_warm_rerun_performs_zero_simulations(self, sandbox,
                                                  store_lookups):
        plan = plan_for()
        run_sweep(plan, store=sandbox, jobs=2, state_path="")
        rows = len(sandbox)
        store_lookups.clear()

        report = run_sweep(plan, store=sandbox, jobs=2, state_path="")

        assert report.counts == {"total": 4, "store": 4,
                                 "executed": 0, "failed": 0}
        # one lookup per cell, each a hit, and nothing new computed
        assert sorted(store_lookups) == sorted((c.key, True)
                                               for c in plan.cells)
        assert len(sandbox) == rows

    def test_store_none_resolves_from_the_default_store(self, sandbox,
                                                        store_lookups):
        plan = plan_for()
        run_sweep(plan, store=None, jobs=2, state_path="")
        default = result_cache.open_store()
        assert all(cell.key in default for cell in plan.cells)
        assert len(sandbox) == 0  # only the store in use is written
        store_lookups.clear()
        report = run_sweep(plan, store=None, jobs=2, state_path="")
        assert report.counts == {"total": 4, "store": 4,
                                 "executed": 0, "failed": 0}
        assert sorted(store_lookups) == sorted((c.key, True)
                                               for c in plan.cells)
        assert len(default) == len(plan.cells)

    def test_config_edit_reexecutes_exactly_dirty_cells(self, sandbox):
        base = plan_for()
        run_sweep(base, store=sandbox, jobs=2, state_path="")

        edited = plan_for(axes={
            "benchmark": ["noop", "tatp"],
            "policy": ["baseline", "pdip_44"],
            "config": [{"label": "small", "btb_entries": 2048},
                       {"label": "default"}],
        })
        assert len(edited.cells) == 8
        report = run_sweep(edited, store=sandbox, jobs=2, state_path="")

        # the 4 default-config cells are warm; only the 4 new-key cells ran
        assert report.counts == {"total": 8, "store": 4,
                                 "executed": 4, "failed": 0}
        for key, (cell, source, _, _, _) in report.outcomes.items():
            expected = "store" if cell.config_label == "default" else "executed"
            assert source == expected, cell.describe()


class TestState:
    def test_default_state_path_is_plan_addressed(self, sandbox):
        plan = plan_for()
        path = sweep_state_path(plan)
        assert plan.digest in path.name
        assert path.parent == result_cache.cache_dir() / "sweeps"

    def test_run_writes_resumable_state(self, sandbox):
        plan = plan_for()
        run_sweep(plan, store=sandbox, jobs=2)  # default state path
        state = load_state(sweep_state_path(plan), plan)
        assert state["plan_digest"] == plan.digest
        assert set(state["done"]) == {c.key for c in plan.cells}
        assert state["done"][plan.cells[0].key] == "executed"
        assert state["failed"] == {}
        # warm re-run rewrites sources as store resolutions
        run_sweep(plan, store=sandbox, jobs=2)
        state = load_state(sweep_state_path(plan), plan)
        assert set(state["done"].values()) == {"store"}

    def test_empty_state_path_disables_state(self, sandbox):
        plan = plan_for()
        run_sweep(plan, store=sandbox, jobs=2, state_path="")
        assert not sweep_state_path(plan).exists()

    def test_state_ignores_other_plans_and_corruption(self, sandbox, tmp_path):
        plan = plan_for()
        other = plan_for(name="other")
        path = tmp_path / "state.json"
        run_sweep(plan, store=sandbox, jobs=2, state_path=path)
        fresh = load_state(path, other)  # digest mismatch -> empty
        assert fresh["done"] == {} and fresh["plan_digest"] == other.digest
        path.write_text("{broken")
        assert load_state(path, plan)["done"] == {}


class TestReport:
    def test_report_json_artifact(self, sandbox, tmp_path):
        plan = plan_for()
        out = tmp_path / "report.json"
        run_sweep(plan, store=sandbox, jobs=2, state_path="",
                  report_path=out)
        data = json.loads(out.read_text())
        assert data["name"] == "exec"
        assert data["plan_digest"] == plan.digest
        assert data["counts"]["executed"] == 4
        assert len(data["cells"]) == 4
        row = data["cells"][0]
        assert set(row) >= {"benchmark", "policy", "key", "source",
                            "stats", "wall_time"}
        local = run_benchmark(row["benchmark"], row["policy"],
                              instructions=2000, warmup=300)
        assert row["stats"] == local.to_dict()

    def test_report_without_stats(self, sandbox, tmp_path):
        plan = plan_for()
        out = tmp_path / "lean.json"
        run_sweep(plan, store=sandbox, jobs=2, state_path="",
                  report_path=out, include_stats=False)
        data = json.loads(out.read_text())
        assert all("stats" not in row for row in data["cells"])

    def test_results_filters_by_config_label(self, sandbox):
        plan = plan_for(axes={
            "benchmark": ["noop"], "policy": ["baseline"],
            "config": [{"label": "small", "btb_entries": 2048},
                       {"label": "default"}],
        })
        report = run_sweep(plan, store=sandbox, jobs=2, state_path="")
        small = report.results(config_label="small")
        default = report.results(config_label="default")
        assert set(small) == set(default) == {"noop"}
        assert small["noop"]["baseline"] is not default["noop"]["baseline"]


def fail_next_write(monkeypatch, store):
    """Make the store's next cell write fail once: a full disk at the
    one ``INSERT`` of its row."""
    armed = [True]

    def fire():
        if not armed:
            return False
        armed.clear()
        return True

    class FullIndex:
        def __init__(self, db):
            self.db = db

        def execute(self, sql, *params):
            if sql.startswith("INSERT INTO results") and fire():
                raise sqlite3.OperationalError("database or disk is full")
            return self.db.execute(sql, *params)

        def __getattr__(self, name):
            return getattr(self.db, name)

    monkeypatch.setattr(store, "_db", FullIndex(store._db))
    return "disk is full"


class TestStoreWriteFault:
    """A failed store write fails its cell; the rest of the grid is kept."""

    @pytest.mark.parametrize("where", ["index"])
    def test_sweep_fails_the_cell_and_keeps_the_rest(self, sandbox,
                                                     monkeypatch, where):
        plan = plan_for()
        reason = fail_next_write(monkeypatch, sandbox)
        report = run_sweep(plan, store=sandbox, jobs=2, state_path="")

        assert report.counts == {"total": 4, "store": 0,
                                 "executed": 3, "failed": 1}
        ((victim, error),) = report.failed.items()
        assert error.startswith("store write failed: ") and reason in error
        assert sandbox.get(victim) is None
        for key, (_, source, stats, _, _) in report.outcomes.items():
            if key != victim:
                assert sandbox.get(key).to_dict() == stats.to_dict()

        again = run_sweep(plan, store=sandbox, jobs=2, state_path="")
        assert again.counts == {"total": 4, "store": 3,
                                "executed": 1, "failed": 0}
        assert again.outcomes[victim][1] == "executed"

    @pytest.mark.parametrize("where", ["index"])
    def test_suite_fails_after_its_manifest_and_keeps_the_rest(
            self, sandbox, monkeypatch, tmp_path, where):
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "manifests"))
        argv = ["suite", "--benchmarks", "noop,tatp",
                "--policies", "baseline,pdip_44", "--instructions", "2000",
                "--warmup", "300", "--jobs", "2"]
        store = result_cache.open_store()  # the store the suite uses
        reason = fail_next_write(monkeypatch, store)
        with pytest.raises(RuntimeError,
                           match=r"^1 grid cell\(s\) failed.*store write"):
            main(argv)

        # the manifest was written before the error propagated
        cells = manifest.load(manifest.latest())["cells"]
        (victim,) = [c for c in cells if c["status"] == "failed"]
        assert victim["error"].startswith("store write failed: ")
        assert reason in victim["error"]
        assert victim["worker"].startswith("pid:") and victim["stats"] is None
        assert store.get(victim["key"]) is None
        kept = [c["key"] for c in cells if c is not victim]
        assert len(kept) == 3
        assert all(store.get(key) is not None for key in kept)

        assert main(argv) == 0
        rerun = manifest.load(manifest.latest())["cells"]
        assert {c["key"]: c["worker"] == "store" for c in rerun} == {
            c["key"]: c is not victim for c in cells}
        for c in rerun:
            assert store.get(c["key"]).counters() == c["stats"]
