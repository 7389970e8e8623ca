"""PDIP: Priority Directed Instruction Prefetching — full reproduction.

A from-scratch, pure-Python reproduction of *PDIP: Priority Directed
Instruction Prefetching* (ASPLOS 2024): a cycle-level decoupled-front-end
CPU simulator (FDIP, TAGE/ITTAGE/BTB/RAS, three-level cache hierarchy
with EMISSARY replacement, out-of-order back-end occupancy model),
synthetic large-code-footprint server workloads, the PDIP prefetcher, the
EIP baseline, and a benchmark harness that regenerates every table and
figure in the paper's evaluation.

Quickstart::

    from repro import run_benchmark

    baseline = run_benchmark("cassandra", "baseline")
    pdip = run_benchmark("cassandra", "pdip_44")
    print(f"PDIP speedup: {(pdip.ipc / baseline.ipc - 1) * 100:+.2f}%")

See ``examples/`` for richer entry points and ``benchmarks/`` for the
per-figure harnesses.
"""

from repro.core.fec import FECClassifier, FECEvent, TriggerType
from repro.core.pdip import PDIPConfig, PDIPController
from repro.core.pdip_table import PDIPTable
from repro.simulator.config import MachineConfig
from repro.simulator.machine import Machine
from repro.simulator.policies import (
    POLICIES,
    PolicySpec,
    build_machine,
    build_machine_for,
    get_policy,
)
from repro.simulator.runner import run_benchmark, speedup
from repro.simulator.stats import SimulationStats
from repro.workloads.profiles import (
    BENCHMARK_NAMES,
    PROFILES,
    WorkloadProfile,
    get_profile,
)

__version__ = "1.0.0"

__all__ = [
    "FECClassifier",
    "FECEvent",
    "TriggerType",
    "PDIPConfig",
    "PDIPController",
    "PDIPTable",
    "MachineConfig",
    "Machine",
    "POLICIES",
    "PolicySpec",
    "build_machine",
    "build_machine_for",
    "get_policy",
    "run_benchmark",
    "speedup",
    "SimulationStats",
    "BENCHMARK_NAMES",
    "PROFILES",
    "WorkloadProfile",
    "get_profile",
    "__version__",
]
