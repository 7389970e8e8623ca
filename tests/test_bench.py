"""Unit tests for the ``repro bench`` harness (src/repro/bench.py).

These exercise the harness plumbing — cell records, report assembly,
baseline joining, and the regression gate (modelled work and
normalized score) — without long simulations: the real ``run_cell``
and ``run_bench`` calls use a tiny instruction budget.
"""

from __future__ import annotations

import json

from repro import bench
from repro.bench import (
    BenchCell,
    BenchReport,
    DEFAULT_CELLS,
    DEFAULT_TOLERANCE,
    QUICK_CELLS,
    check_regression,
    load_baseline,
    run_bench,
    run_cell,
    write_report,
)


class TestGrids:
    def test_quick_is_subset_of_default(self):
        default_names = {c.name for c in DEFAULT_CELLS}
        for cell in QUICK_CELLS:
            assert cell.name in default_names

    def test_cell_names_unique(self):
        names = [c.name for c in DEFAULT_CELLS]
        assert len(names) == len(set(names))

    def test_default_grid_covers_probe_and_budgets(self):
        assert any(c.probe for c in DEFAULT_CELLS)
        budgets = {c.instructions for c in DEFAULT_CELLS}
        assert len(budgets) >= 2  # short and long

    def test_cell_key_is_name(self):
        cell = DEFAULT_CELLS[0]
        assert cell.key == cell.name


class TestRunCell:
    def test_run_cell_record_fields(self):
        cell = BenchCell(name="tiny", benchmark="tatp", policy="baseline",
                         instructions=2_000, warmup=400)
        rec = run_cell(cell, repeats=1)
        assert rec["name"] == "tiny"
        assert rec["benchmark"] == "tatp"
        assert rec["policy"] == "baseline"
        assert rec["instructions"] == 2_000
        assert rec["wall_s"] > 0
        assert rec["simulated_cycles"] > 0
        assert rec["cycles_per_sec"] > 0
        assert rec["ipc"] > 0
        # the probe-free cell should fast-forward at least once
        assert rec["fast_forwarded_cycles"] > 0
        assert rec["probe"] is False


def _report_with(ratios):
    report = BenchReport(calib=1.0)
    for i, ratio in enumerate(ratios):
        rec = {"name": "cell-%d" % i, "cycles_per_sec": 100.0,
               "norm_score": 1.0}
        if ratio is not None:
            rec["speedup_vs_baseline"] = ratio
            rec["norm_ratio_vs_baseline"] = ratio
        report.cells.append(rec)
    return report


class TestRegressionGate:
    def test_no_failures_when_at_baseline(self):
        assert check_regression(_report_with([1.0, 1.1])) == []

    def test_within_tolerance_passes(self):
        # 0.81 > 1 - 0.20
        assert check_regression(_report_with([0.81])) == []

    def test_beyond_tolerance_fails(self):
        failures = check_regression(_report_with([0.79]))
        assert len(failures) == 1
        assert "cell-0" in failures[0]

    def test_custom_tolerance(self):
        assert check_regression(_report_with([0.95]), tolerance=0.02)
        assert not check_regression(_report_with([0.99]), tolerance=0.02)

    def test_cells_without_baseline_never_gate(self):
        assert check_regression(_report_with([None, None])) == []

    def test_default_tolerance_is_twenty_percent(self):
        assert DEFAULT_TOLERANCE == 0.20


def _report_with_work(cycles, ipc, base_cycles=48_000, base_ipc=1.25):
    report = BenchReport(calib=1.0)
    report.cells.append({
        "name": "cell-0", "cycles_per_sec": 100.0, "norm_score": 1.0,
        "simulated_cycles": cycles, "ipc": ipc,
        "fast_forwarded_cycles": 0,
        "baseline_simulated_cycles": base_cycles, "baseline_ipc": base_ipc,
        "speedup_vs_baseline": 1.0, "norm_ratio_vs_baseline": 1.0})
    return report


class TestModelledWorkGate:
    def test_same_work_passes(self):
        assert check_regression(_report_with_work(48_000, 1.25)) == []

    def test_different_cycles_fail_at_full_speed(self):
        failures = check_regression(_report_with_work(47_999, 1.25))
        assert len(failures) == 1
        assert "cell-0" in failures[0] and "simulated_cycles" in failures[0]

    def test_different_ipc_fails(self):
        failures = check_regression(_report_with_work(48_000, 1.2500001))
        assert len(failures) == 1 and "ipc" in failures[0]

    def test_fast_forwarded_cycles_never_gate(self):
        report = _report_with_work(48_000, 1.25)
        report.cells[0]["fast_forwarded_cycles"] = 12_345
        assert check_regression(report) == []

    def test_run_bench_joins_the_baseline_work(self, tmp_path):
        cell = BenchCell(name="tiny", benchmark="tatp", policy="baseline",
                         instructions=2_000, warmup=400)
        rec = run_cell(cell, repeats=1)
        rec["norm_score"] = 1e-9  # any real run is faster than this
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"calib_score": 1.0, "cells": [rec]}))
        same = run_bench([cell], repeats=1, baseline_path=baseline,
                         verbose=False)
        assert check_regression(same) == []
        rec["simulated_cycles"] += 1
        baseline.write_text(json.dumps({"calib_score": 1.0, "cells": [rec]}))
        other = run_bench([cell], repeats=1, baseline_path=baseline,
                          verbose=False)
        failures = check_regression(other)
        assert len(failures) == 1 and "simulated_cycles" in failures[0]


class TestPerCellCalibration:
    """Each cell is normalized by a calibration taken right before it."""

    BASE = [BenchCell(name="cell-%d" % i, benchmark="tatp",
                      policy="baseline", instructions=2_000, warmup=400)
            for i in range(4)]

    def _run(self, tmp_path, monkeypatch, speeds, calibs):
        """``run_bench`` over four cells where cell i runs at ``speeds[i]``
        cycles/s and the calibration before it reads ``calibs[i]``."""
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"calib_score": 100.0, "cells": [
            {"name": c.name, "simulated_cycles": 1000, "ipc": 1.0,
             "cycles_per_sec": 1000.0, "norm_score": 10.0}
            for c in self.BASE]}))
        order = []
        calib_iter = iter(calibs)

        def fake_calibrate():
            order.append("calibrate")
            return next(calib_iter)

        def fake_run_cell(cell, repeats=2):
            order.append(cell.name)
            speed = speeds[int(cell.name.split("-")[1])]
            return {"name": cell.name, "simulated_cycles": 1000, "ipc": 1.0,
                    "cycles_per_sec": speed, "wall_s": 1000 / speed}

        monkeypatch.setattr(bench, "calibrate", fake_calibrate)
        monkeypatch.setattr(bench, "run_cell", fake_run_cell)
        report = run_bench(self.BASE, baseline_path=baseline, verbose=False)
        assert order == [step for c in self.BASE
                         for step in ("calibrate", c.name)]
        assert [r["calib_score"] for r in report.cells] == list(calibs)
        return report

    def test_host_halving_mid_grid_passes(self, tmp_path, monkeypatch):
        report = self._run(tmp_path, monkeypatch,
                           speeds=[1000.0, 1000.0, 500.0, 500.0],
                           calibs=[100.0, 100.0, 50.0, 50.0])
        assert check_regression(report) == []
        assert report.to_dict()["calib_score"] == 75.0  # the median

    def test_one_slow_cell_still_fails(self, tmp_path, monkeypatch):
        report = self._run(tmp_path, monkeypatch,
                           speeds=[1000.0, 500.0, 1000.0, 1000.0],
                           calibs=[100.0, 100.0, 100.0, 100.0])
        failures = check_regression(report)
        assert len(failures) == 1 and "cell-1" in failures[0]


class TestReportDocument:
    def test_geomeans_present_when_joined(self):
        doc = _report_with([2.0, 0.5]).to_dict()
        assert abs(doc["geomean_speedup_vs_baseline"] - 1.0) < 1e-9
        assert abs(doc["geomean_norm_ratio_vs_baseline"] - 1.0) < 1e-9

    def test_geomeans_absent_without_baseline(self):
        doc = _report_with([None]).to_dict()
        assert "geomean_speedup_vs_baseline" not in doc
        assert "geomean_norm_ratio_vs_baseline" not in doc

    def test_write_and_load_roundtrip(self, tmp_path):
        report = _report_with([1.5])
        out = write_report(report, tmp_path / "BENCH_runner.json")
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["cells"][0]["name"] == "cell-0"
        # write_report output parses with the baseline loader too
        assert load_baseline(out)["calib_score"] == 1.0

    def test_load_baseline_missing_returns_none(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") is None
