"""Machine configuration (the reproduction's Table 1).

Defaults model the paper's Golden-Cove-like core: 32 KB/8-way L1-I with
16 MSHRs, 1 MB/16-way L2, 2 MB/16-way L3, 8K-entry BTB, 24-entry FTQ,
40-entry PQ, 12-wide decode/retire, 512-entry ROB.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.memory.hierarchy import HierarchyConfig


@dataclass(frozen=True)
class MachineConfig:
    """All machine parameters for one simulation."""

    # --- front end ---------------------------------------------------------
    ftq_depth: int = 24
    decode_width: int = 12
    iag_blocks_per_cycle: int = 5     # FTQ fill rate (BPU runs ahead of decode)
    #: cycles from decode of a mispredicted branch to the front-end resteer
    #: (issue + execute + redirect)
    exec_resteer_latency: int = 18
    #: cycles from fetch of a BTB-missed taken branch to the early
    #: pre-decode correction
    predecode_resteer_latency: int = 3
    #: pipeline redirect bubble after a resteer before the IAG restarts
    redirect_penalty: int = 3
    #: wrong-path fetch block budget per resteer episode
    wrongpath_max_blocks: int = 64

    # --- prefetch queue ------------------------------------------------------
    pq_capacity: int = 40
    pq_issue_width: int = 2
    pq_mshr_reserve: int = 2

    # --- branch prediction ---------------------------------------------------
    btb_entries: int = 8192
    btb_assoc: int = 8
    ras_depth: int = 64

    # --- back end -------------------------------------------------------------
    rob_entries: int = 512
    retire_width: int = 12
    backend_depth: int = 10
    issue_empty_threshold: int = 96
    #: L2-data-miss exposure: probability a miss stalls retirement, and the
    #: fraction of the miss latency that is exposed
    data_miss_expose_prob: float = 0.25
    data_miss_exposed_fraction: float = 0.35

    # --- memory -----------------------------------------------------------------
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)

    # --- FEC classification --------------------------------------------------
    fec_wake_window: int = 24
    fec_high_cost_threshold: int = 10

    def scaled(self, **overrides) -> "MachineConfig":
        """Copy with fields replaced (mirrors WorkloadProfile.scaled)."""
        return replace(self, **overrides)

    def with_l1i_kb(self, size_kb: int) -> "MachineConfig":
        """Convenience for the 2X IL1 configuration."""
        hier = replace(self.hierarchy, l1i_size_kb=size_kb)
        return replace(self, hierarchy=hier)

