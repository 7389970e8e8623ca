"""Self-checks of the benchmark's stage map and metric tables.

    python3 -m pytest perfbench/test_stages.py

The traced-run checks start real workloads (about a minute in total).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import stages  # noqa: E402
from perfbench.run import PER_LAYER  # noqa: E402


def test_every_repro_module_maps_to_a_layer():
    src = ROOT / "src"
    unmapped = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = stages.module_of(str(path), src)
        if stages.layer_of(module) is None:
            unmapped.append(module)
    assert not unmapped, "add these modules to perfbench/stages.py: %s" % (
        ", ".join(unmapped))


def test_a_new_module_in_a_split_package_is_unmapped():
    # the packages that span several layers have no catch-all entry
    for module in ("repro.core.foo", "repro.simulator.engine",
                   "repro.service.foo", "repro.foo"):
        assert stages.layer_of(module) is None, module
    assert stages.layer_of("repro.branch.foo") == "branch"


def test_reported_stages_are_layers():
    layers = set(stages.MODULES.values()) | set(stages.PACKAGES.values())
    assert set(stages.SIM_STAGES) <= layers


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload,layers", [
    ("trace-ingest", ("traces.convert.records_per_s",
                      "traces.schema.derive_events_per_s",
                      "traces.downsample.events_per_s",
                      "traces.synthesize.synthesize_s",
                      "service.store.put_trace_ms",
                      "workloads.trace.host_frac")),
    ("service-submit", ("service.server.queue_wait_ms_p50",
                        "service.server.hit_job_ms_p50",
                        "service.client.submit_ms_p50")),
    ("grid-warm", ("service.store.get_ms_p50",
                   "service.store.get_calls_per_cell",
                   "simulator.cache.run_key_us_p50")),
])
def test_traced_run_gives_each_exercised_layer_time(workload, layers):
    metrics = traced(workload)
    assert set(metrics) == {name for name, _ in PER_LAYER}
    zero = [name for name in layers if not metrics[name] > 0]
    assert not zero, "%s: zero time on %s" % (workload, ", ".join(zero))
