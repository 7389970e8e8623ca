"""Cycle-level decoupled-front-end simulator.

The machine models the pipeline of Figure 7: BPU/IAG filling a 24-entry
FTQ along the predicted path (with wrong-path excursions after
mispredicts), FDIP prefetching FTQ lines into the L1-I, an IFU/decode
stage that starves when the head's lines are not ready, a calibrated
back-end occupancy model, retire-time FEC classification, and the
PDIP/EIP prefetchers hanging off the FTQ and retire streams.
"""

from repro.simulator.config import MachineConfig
from repro.simulator.stats import SimulationStats
from repro.simulator.machine import Machine
from repro.simulator.policies import (
    POLICIES,
    PolicySpec,
    build_machine,
    get_policy,
)
from repro.simulator.runner import run_benchmark, speedup

__all__ = [
    "MachineConfig",
    "SimulationStats",
    "Machine",
    "PolicySpec",
    "POLICIES",
    "get_policy",
    "build_machine",
    "run_benchmark",
    "speedup",
]
