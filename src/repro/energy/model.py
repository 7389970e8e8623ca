"""Core-relative PDIP energy and area overheads (Table 5).

A Golden-Cove-class core is taken as the reference budget (McPAT-scale
numbers for a ~7 mm^2, ~4 W performance core). Each PDIP configuration
adds its table SRAM (area + leakage) and the access energy of one table
lookup per FTQ entry plus one insertion per qualifying FEC event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.core.pdip_table import PDIPTable, TAG_BITS
from repro.energy.sram import SRAMModel

#: reference core area (mm^2) and average power (W), Golden-Cove-class
CORE_AREA_MM2 = 7.0
CORE_POWER_W = 4.0

#: activity assumptions (events per cycle at ~2 IPC, ~6 instr/block)
TABLE_LOOKUPS_PER_CYCLE = 0.6
TABLE_INSERTS_PER_CYCLE = 0.01

#: core clock, GHz (converts pJ/cycle into watts)
CLOCK_GHZ = 3.2


@dataclass
class PDIPOverhead:
    """Relative overhead of one PDIP table configuration."""

    label: str
    table_kb: float
    area_mm2: float
    energy_pct: float
    area_pct: float


class CoreEnergyModel:
    """Prices PDIP structures against the reference core."""

    def __init__(self, core_area_mm2: float = CORE_AREA_MM2,
                 core_power_w: float = CORE_POWER_W,
                 clock_ghz: float = CLOCK_GHZ):
        self.core_area_mm2 = core_area_mm2
        self.core_power_w = core_power_w
        self.clock_ghz = clock_ghz

    def pdip_overhead(self, assoc: int, label: str = "") -> PDIPOverhead:
        """Overhead of a 512-set PDIP table with ``assoc`` ways."""
        table = PDIPTable(assoc=assoc)
        payload = table.bits_per_way - TAG_BITS
        sram = SRAMModel("pdip_table", num_sets=table.num_sets, assoc=assoc,
                         payload_bits_per_way=payload, tag_bits=TAG_BITS)
        est = sram.estimate()
        # dynamic power: lookups dominate; inserts are rare
        pj_per_cycle = (TABLE_LOOKUPS_PER_CYCLE * est.read_energy_pj
                        + TABLE_INSERTS_PER_CYCLE * est.read_energy_pj)
        dyn_mw = pj_per_cycle * self.clock_ghz  # pJ/cycle * GHz = mW
        total_w = (dyn_mw + est.leakage_mw) / 1000.0
        return PDIPOverhead(
            label=label or f"PDIP({int(round(table.storage_kb))})",
            table_kb=table.storage_kb,
            area_mm2=est.area_mm2,
            energy_pct=100.0 * total_w / self.core_power_w,
            area_pct=100.0 * est.area_mm2 / self.core_area_mm2,
        )


def pdip_overheads(assocs: Iterable[int] = (2, 4, 8, 16)) -> List[PDIPOverhead]:
    """Table 5: overheads for the 11/22/44/87 KB configurations."""
    model = CoreEnergyModel()
    labels = {2: "PDIP(11)", 4: "PDIP(22)", 8: "PDIP(44)", 16: "PDIP(87)"}
    return [model.pdip_overhead(a, labels.get(a, "")) for a in assocs]
