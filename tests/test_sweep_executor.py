"""Incremental sweep execution: warm skips, dirty sets, state, reports.

The two tests ISSUE-level acceptance hangs on live here:

* ``test_warm_rerun_performs_zero_simulations`` — a second run of an
  unchanged sweep resolves every cell from the durable store; the
  store's ``hits`` counter (which only ``get`` bumps) proves each cell
  cost exactly one index lookup and zero simulations.
* ``test_config_edit_reexecutes_exactly_dirty_cells`` — flipping one
  MachineConfig field re-runs only the cells whose run keys it touched;
  every other cell stays warm.
"""

from __future__ import annotations

import json

import pytest

from repro.service.store import ResultStore
from repro.simulator import cache as result_cache
from repro.simulator.runner import run_benchmark, run_suite_parallel
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
    """Isolated default store + manifest-free runs; returns a fresh store."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.setenv("REPRO_NO_MANIFEST", "1")
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

    def test_warm_rerun_performs_zero_simulations(self, sandbox):
        plan = plan_for()
        run_sweep(plan, store=sandbox, jobs=2, state_path="")
        before = sandbox.info()
        assert before["hits"] == 0  # puts and __contains__ don't count hits

        report = run_sweep(plan, store=sandbox, jobs=2, state_path="")

        assert report.counts == {"total": 4, "store": 4,
                                 "executed": 0, "failed": 0}
        after = sandbox.info()
        assert after["hits"] == before["hits"] + len(plan.cells)
        assert after["rows"] == before["rows"]  # nothing new computed

    def test_store_none_resolves_from_the_default_store(self, sandbox):
        plan = plan_for()
        run_sweep(plan, store=None, jobs=2, state_path="")
        default = result_cache.open_store()
        assert all(cell.key in default for cell in plan.cells)
        assert len(sandbox) == 0  # only the store in use is written
        report = run_sweep(plan, store=None, jobs=2, state_path="")
        assert report.counts == {"total": 4, "store": 4,
                                 "executed": 0, "failed": 0}
        assert default.info()["hits"] == len(plan.cells)

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

    def test_sweep_stats_bit_identical_to_suite_runner(self, sandbox):
        plan = plan_for()
        report = run_sweep(plan, store=sandbox, jobs=2, state_path="")
        suite = run_suite_parallel(
            ["baseline", "pdip_44"], benchmarks=["noop", "tatp"],
            instructions=2000, warmup=300, jobs=2)
        grid = report.results()
        for benchmark in ("noop", "tatp"):
            for policy in ("baseline", "pdip_44"):
                assert (grid[benchmark][policy].to_dict()
                        == suite[benchmark][policy].to_dict())


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
