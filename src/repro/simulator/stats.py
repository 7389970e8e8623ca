"""Simulation statistics and derived metrics.

``SimulationStats`` is a plain counter bag filled by the machine; the
properties compute every metric the paper's figures report: IPC, MPKI per
cache level, top-down slot fractions (Fig. 1), FEC fractions (Fig. 4),
prefetch PPKI/accuracy/lateness (Table 4, Fig. 11), and FEC-stall
coverage (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

from repro.utils import SLOTTED


@dataclass(**SLOTTED)
class SimulationStats:
    """Raw counters for one measured run (post-warmup).

    Slotted on Python 3.10+ (the machine touches several counters every
    cycle), so iterate the counters with :data:`COUNTER_FIELDS` or
    :meth:`counters` — ``vars(stats)`` does not work on a slotted class.
    """

    cycles: int = 0
    instructions: int = 0

    # -- top-down slots --------------------------------------------------------
    slots_total: int = 0
    slots_retiring: int = 0
    slots_bad_speculation: int = 0
    slots_frontend_bound: int = 0
    slots_backend_bound: int = 0

    # -- front-end events -------------------------------------------------------
    decode_starvation_cycles: int = 0
    fec_starvation_cycles: int = 0
    resteers: int = 0
    resteers_btb_miss: int = 0
    resteers_cond: int = 0
    resteers_indirect: int = 0
    resteers_return: int = 0
    wrong_path_blocks: int = 0

    # -- caches -------------------------------------------------------------------
    l1i_accesses: int = 0
    l1i_misses: int = 0
    l2_inst_misses: int = 0
    l2_data_misses: int = 0
    l3_misses: int = 0

    # -- prefetching ---------------------------------------------------------------
    prefetches_issued: int = 0
    prefetches_dropped: int = 0
    prefetch_useful: int = 0
    prefetch_late: int = 0
    prefetch_useless: int = 0

    # -- FEC ---------------------------------------------------------------------
    fec_events: int = 0
    fec_distinct_lines: int = 0
    retired_distinct_lines: int = 0
    fec_high_cost_events: int = 0
    fec_high_cost_backend_events: int = 0
    fec_covered_events: int = 0   # FEC events whose line had been prefetched

    # -- PDIP-specific -------------------------------------------------------------
    pdip_triggers_mispredict: int = 0
    pdip_triggers_last_taken: int = 0
    pdip_inserts: int = 0

    # -- free-form extras (per-policy diagnostics) ----------------------------
    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # counter iteration (slots-safe replacement for ``vars(stats)``)
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """Numeric counters as a dict (``extra`` excluded)."""
        return {name: value for name in COUNTER_FIELDS
                if isinstance(value := getattr(self, name), (int, float))}

    def to_dict(self) -> Dict[str, object]:
        """Full payload: every counter plus the ``extra`` dict."""
        data: Dict[str, object] = dict(self.counters())
        data["extra"] = dict(self.extra)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationStats":
        """Rebuild stats from a :meth:`to_dict` payload.

        Unknown keys are ignored, so dumps written by a newer schema
        still load (the deserializer of the result store).
        """
        stats = cls()
        for name, value in data.items():
            if name == "extra":
                stats.extra = dict(value)  # type: ignore[arg-type]
            elif hasattr(stats, name):
                setattr(stats, name, value)
        return stats

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def _mpki(self, count: int) -> float:
        return count / self.instructions * 1000.0 if self.instructions else 0.0

    @property
    def l1i_mpki(self) -> float:
        """L1-I demand misses per kilo-instruction."""
        return self._mpki(self.l1i_misses)

    @property
    def l2i_mpki(self) -> float:
        """L2 instruction misses per kilo-instruction."""
        return self._mpki(self.l2_inst_misses)

    @property
    def l2d_mpki(self) -> float:
        """L2 data misses per kilo-instruction."""
        return self._mpki(self.l2_data_misses)

    @property
    def l3_mpki(self) -> float:
        """L3 misses per kilo-instruction."""
        return self._mpki(self.l3_misses)

    @property
    def ppki(self) -> float:
        """Prefetches issued per kilo-instruction (Table 4)."""
        return self._mpki(self.prefetches_issued)

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of issued prefetches demanded before eviction (Table 4)."""
        resolved = self.prefetch_useful + self.prefetch_late + self.prefetch_useless
        if resolved == 0:
            return 0.0
        return (self.prefetch_useful + self.prefetch_late) / resolved

    @property
    def prefetch_late_fraction(self) -> float:
        """Late prefetches / issued prefetches (Fig. 11)."""
        if self.prefetches_issued == 0:
            return 0.0
        return self.prefetch_late / self.prefetches_issued

    # -- top-down fractions (Fig. 1) ------------------------------------------
    @property
    def topdown(self) -> Dict[str, float]:
        """Top-down slot fractions (Fig. 1 buckets)."""
        total = self.slots_total or 1
        return {
            "retiring": self.slots_retiring / total,
            "frontend_bound": self.slots_frontend_bound / total,
            "bad_speculation": self.slots_bad_speculation / total,
            "backend_bound": self.slots_backend_bound / total,
        }

    # -- FEC fractions (Fig. 4) -------------------------------------------------
    @property
    def fec_line_fraction(self) -> float:
        """Distinct FEC lines / distinct retired lines."""
        if self.retired_distinct_lines == 0:
            return 0.0
        return self.fec_distinct_lines / self.retired_distinct_lines

    @property
    def fec_starvation_fraction(self) -> float:
        """FEC starvation / total decode starvation."""
        if self.decode_starvation_cycles == 0:
            return 0.0
        return min(1.0, self.fec_starvation_cycles / self.decode_starvation_cycles)

    @property
    def fec_coverage(self) -> float:
        """Fraction of FEC misses whose line a prefetcher had targeted."""
        if self.fec_events == 0:
            return 0.0
        return self.fec_covered_events / self.fec_events

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (f"IPC={self.ipc:.3f} L1I-MPKI={self.l1i_mpki:.1f} "
                f"L2I={self.l2i_mpki:.1f} L3={self.l3_mpki:.2f} "
                f"PPKI={self.ppki:.1f} acc={self.prefetch_accuracy:.2f} "
                f"FEstall={self.decode_starvation_cycles}")


#: every scalar counter field, in declaration order (``extra`` excluded)
COUNTER_FIELDS = tuple(f.name for f in fields(SimulationStats)
                       if f.name != "extra")
