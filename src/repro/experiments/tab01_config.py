"""Table 1: the simulated processor configuration.

Prints the reproduction's machine parameters next to the paper's, making
the documented 4-8x cache scaling explicit.
"""

from __future__ import annotations

from repro.experiments import common
from repro.simulator.config import MachineConfig

PAPER = {
    "L1-I": "32kB 8-way, 2-cycle, 16 MSHR",
    "L2": "1MB 16-way, 10-cycle, 32 MSHR",
    "L3": "2MB 16-way, 20-cycle, 64 MSHR",
    "BTB": "8K entries (119.01 KB)",
    "FTQ": "24 entries",
    "Prefetch Queue": "40 cachelines",
    "Decode/Retire": "12 wide",
    "ROB": "512 entries",
    "Branch predictor": "TAGE (64KB) / ITTAGE (64KB)",
}


def run(config: MachineConfig = None) -> dict:
    """Compute this artifact's data series (see the module docstring)."""
    cfg = config if config is not None else MachineConfig()
    h = cfg.hierarchy
    ours = {
        "L1-I": "%dkB %d-way, %d-cycle, %d MSHR" % (
            h.l1i_size_kb, h.l1i_assoc, h.l1_hit_latency, h.l1i_mshrs),
        "L2": "%dkB %d-way, %d-cycle, %d MSHR" % (
            h.l2_size_kb, h.l2_assoc, h.l2_hit_latency, h.l2_mshrs),
        "L3": "%dkB %d-way, %d-cycle, %d MSHR" % (
            h.l3_size_kb, h.l3_assoc, h.l3_hit_latency, h.l3_mshrs),
        "BTB": "%d entries" % cfg.btb_entries,
        "FTQ": "%d entries" % cfg.ftq_depth,
        "Prefetch Queue": "%d cachelines" % cfg.pq_capacity,
        "Decode/Retire": "%d wide" % cfg.decode_width,
        "ROB": "%d entries" % cfg.rob_entries,
        "Branch predictor": "TAGE / ITTAGE (scaled tables)",
    }
    return {"paper": PAPER, "ours": ours}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    rows = [[field, result["paper"][field], result["ours"][field]]
            for field in PAPER]
    return common.format_table(
        ["field", "paper (Table 1)", "reproduction (scaled)"], rows,
        title="Table 1: processor configuration")
