"""Table 5: CPU-core energy and area overhead of the PDIP configurations.

Paper values (McPAT): energy 0.25/0.55/0.62/0.64 %, area
0.31/0.52/0.96/2.84 % for PDIP(11/22/44/87). Our analytical SRAM model
reproduces the scaling trend (energy saturating, area super-linear at
16-way).
"""

from __future__ import annotations

from repro.energy.model import pdip_overheads
from repro.experiments import common

PAPER = {
    "PDIP(11)": (0.25, 0.31),
    "PDIP(22)": (0.55, 0.52),
    "PDIP(44)": (0.62, 0.96),
    "PDIP(87)": (0.64, 2.84),
}


def run() -> dict:
    """Compute this artifact's data series (see the module docstring)."""
    rows = {}
    for ov in pdip_overheads():
        rows[ov.label] = {
            "table_kb": ov.table_kb,
            "energy_pct": ov.energy_pct,
            "area_pct": ov.area_pct,
        }
    return {"rows": rows, "paper": PAPER}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    rows = []
    for label, (p_energy, p_area) in PAPER.items():
        m = result["rows"][label]
        rows.append([label, "%.1f" % m["table_kb"],
                     p_energy, "%.2f" % m["energy_pct"],
                     p_area, "%.2f" % m["area_pct"]])
    return common.format_table(
        ["config", "KB", "paper E%", "ours E%", "paper A%", "ours A%"],
        rows, title="Table 5: PDIP energy and area overhead vs core")
