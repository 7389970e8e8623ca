"""The perf gate's verdict (``scripts/perf_gate.py``) on synthetic runs.

No perfbench run starts here: each run record is the exit status and
standard output that ``perfbench/run.py`` would give, built in the test,
and the bounds are the ones ``BENCHMARK.json`` fixes.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "scripts" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

#: a grid-cold run of the parent, as ``perfbench/run.py`` reports it
PARENT = {"setup_s": 0.30, "throughput_per_s": 150.0,
          "latency_ms_p50": 530.0, "peak_rss_mb": 68.0}


def run(failed=0, **scale):
    """One run record: PARENT's metrics, each scaled by ``scale[name]``."""
    metrics = {name: {"value": value * scale.get(name, 1.0), "unit": "u"}
               for name, value in PARENT.items()}
    line = json.dumps({"correct": failed == 0, "attempted": 160,
                       "failed": failed, "metrics": metrics})
    return {"returncode": 0, "stdout": "  throughput_per_s ...\n" + line}


def gate(change):
    """``(failures, summary)`` over five pairs of PARENT and ``change``."""
    return perf_gate.verdict([(run(), change) for _ in perf_gate.SEEDS],
                             END_TO_END)


def test_same_runs_pass_and_report_every_metric():
    failures, summary = gate(run())
    assert failures == []
    assert sorted(summary) == sorted(PARENT)
    assert all(row["median_ratio"] == 1.0 and len(row["pair_ratios"]) == 5
               for row in summary.values())


def test_a_30_percent_throughput_drop_fails():
    failures, summary = gate(run(throughput_per_s=0.7))
    assert len(failures) == 1 and failures[0].startswith("throughput_per_s")
    assert abs(summary["throughput_per_s"]["median_ratio"] - 0.7) < 1e-9


def test_a_20_percent_throughput_drop_passes():
    assert gate(run(throughput_per_s=0.8))[0] == []


def test_an_rss_rise_past_10_percent_fails():
    assert gate(run(peak_rss_mb=1.09))[0] == []
    failures, _ = gate(run(peak_rss_mb=1.11))
    assert len(failures) == 1 and failures[0].startswith("peak_rss_mb")


def test_a_run_with_failed_operations_fails():
    failures, _ = gate(run(failed=1))
    assert len(failures) == 5
    assert all("change: correct False, failed 1" in f for f in failures)


def test_a_missing_result_line_fails():
    crashed = {"returncode": 0, "stdout": "  setup_s 0.3 s\n"}
    failures, summary = gate(crashed)
    assert len(failures) == 5 and summary == {}
    assert all("change: no result line" in f for f in failures)
    failures, _ = gate({"returncode": 2, "stdout": ""})
    assert all("change: exit status 2" in f for f in failures)
