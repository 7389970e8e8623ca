"""Three-level memory hierarchy for the instruction and data streams.

Geometry and hit latencies follow Table 1:

* L1-I: 32 KB, 8-way, 2-cycle hit, 16 MSHRs
* L2 (unified): 1 MB, 16-way, 10-cycle hit
* L3: 2 MB, 16-way, 20-cycle hit
* memory: flat latency beyond L3

The instruction stream (FDIP's run-ahead fetch plus PDIP/EIP prefetches)
and the back end's data stream (L1-D misses reaching the L2) share the L2
and L3, which is how EMISSARY's protected instruction ways create the L2
data contention the paper discusses (dotty/tatp/smallbank).

Special modes:

* ``fec_ideal`` — lines in the FEC set are always served at L1 hit
  latency (the paper's FEC-Ideal oracle upper bound);
* ``zero_cost_prefetch`` — prefetch fills are instantaneous (the paper's
  zero-cost timeliness study, Section 7.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from repro.memory.cache import Cache
from repro.memory.replacement import LRUPolicy, ReplacementPolicy
from repro.memory.tlb import InstructionTLB
from repro.telemetry.handle import NULL_RECORDER
from repro.utils import SLOTTED


@dataclass(frozen=True)
class HierarchyConfig:
    """Sizes/latencies for the three levels.

    Defaults are the paper's Table 1 geometry **scaled down 4-8x**
    (L1-I 32 KB -> 8 KB, L2 1 MB -> 128 KB, L3 2 MB -> 1 MB) to match the
    4-8x scaling of the synthetic workload footprints relative to the
    paper's multi-MB server binaries. This preserves the ratios that
    drive every result — footprint >> L1-I (~50-100x) and live set > L2 —
    at instruction budgets a pure-Python simulator can run.
    Use :meth:`paper_table1` for the unscaled reference geometry.
    Frozen, as the :class:`~repro.simulator.config.MachineConfig` that
    holds it is, so a machine config is an immutable, hashable value.
    """

    l1i_size_kb: int = 8
    l1i_assoc: int = 8
    l1i_mshrs: int = 16
    l1_hit_latency: int = 2
    l2_size_kb: int = 128
    l2_assoc: int = 16
    l2_mshrs: int = 32
    l2_hit_latency: int = 10
    l3_size_kb: int = 1024
    l3_assoc: int = 16
    l3_mshrs: int = 64
    l3_hit_latency: int = 20
    memory_latency: int = 150
    #: optional iTLB (the paper's Section 4.2 side experiment); off by
    #: default so the baseline matches the paper's configuration
    itlb_enabled: bool = False
    itlb_entries: int = 64
    itlb_assoc: int = 4
    itlb_miss_latency: int = 25

    @classmethod
    def paper_table1(cls) -> "HierarchyConfig":
        """The unscaled Table 1 geometry (32 KB / 1 MB / 2 MB)."""
        return cls(l1i_size_kb=32, l2_size_kb=1024, l3_size_kb=2048)


@dataclass(**SLOTTED)
class InstructionFetchResult:
    """Outcome of an instruction-stream access."""

    ready_cycle: int
    l1_hit: bool                  # resident and ready in L1-I
    l1_miss: bool                 # new L1-I miss (MSHR allocated)
    pending_hit: bool             # merged into an outstanding fill
    served_by: str                # "l1" | "l2" | "l3" | "mem" | "fec_ideal"
    #: the outstanding fill we merged into was prefetch-initiated
    late_prefetch: bool = False
    #: demand hit on a prefetched, previously-unused line
    useful_prefetch: bool = False
    stalled_mshr: bool = False    # demand could not allocate an MSHR


class MemoryHierarchy:
    """L1-I + unified L2 + L3 with prefetch and FEC bookkeeping."""

    def __init__(self, config: Optional[HierarchyConfig] = None,
                 l2_policy: Optional[ReplacementPolicy] = None,
                 fec_ideal: bool = False, zero_cost_prefetch: bool = False,
                 seed: int = 0):
        self.config = config if config is not None else HierarchyConfig()
        cfg = self.config
        self.l2_policy = l2_policy if l2_policy is not None else LRUPolicy()
        self.l1i = Cache("L1I", cfg.l1i_size_kb, cfg.l1i_assoc,
                         mshrs=cfg.l1i_mshrs)
        self.l2 = Cache("L2", cfg.l2_size_kb, cfg.l2_assoc,
                        mshrs=cfg.l2_mshrs, policy=self.l2_policy)
        self.l3 = Cache("L3", cfg.l3_size_kb, cfg.l3_assoc,
                        mshrs=cfg.l3_mshrs)
        self.itlb = (InstructionTLB(entries=cfg.itlb_entries,
                                    assoc=cfg.itlb_assoc,
                                    miss_latency=cfg.itlb_miss_latency)
                     if cfg.itlb_enabled else None)
        # hot-path copies of the per-level latencies (an attribute load
        # instead of a config-object chase on every access)
        self._l1_hit = cfg.l1_hit_latency
        self._l2_hit = cfg.l2_hit_latency
        self._l3_hit = cfg.l3_hit_latency
        self._mem_lat = cfg.memory_latency
        self.fec_ideal = fec_ideal
        self.zero_cost_prefetch = zero_cost_prefetch
        #: lines ever qualified as front-end critical (shared by the
        #: FEC-Ideal override and diagnostics)
        self.fec_lines: Set[int] = set()
        #: lines ever targeted by a PDIP/EIP prefetch (coverage accounting)
        self.prefetched_lines: Set[int] = set()
        #: telemetry handle (no-op unless a TelemetrySession attaches)
        self.tel = NULL_RECORDER

        # -- statistics ------------------------------------------------------
        self.l1i_demand_accesses = 0
        self.l1i_demand_misses = 0
        self.l2_inst_accesses = 0
        self.l2_inst_misses = 0
        self.l2_data_accesses = 0
        self.l2_data_misses = 0
        self.l3_accesses = 0
        self.l3_misses = 0
        self.prefetches_issued = 0       # PQ prefetches that left for L2
        self.prefetches_dropped = 0      # dropped for MSHR/PQ pressure
        self.prefetch_useful = 0         # demand hit on unused prefetched line
        self.prefetch_late = 0           # demand merged into prefetch fill
        self.prefetch_useless = 0        # prefetched line evicted unused

    # ------------------------------------------------------------------
    # instruction stream
    # ------------------------------------------------------------------
    def fetch_instruction(self, line: int, cycle: int) -> InstructionFetchResult:
        """Demand-stream access (FTQ enqueue / IFU fetch) to ``line``.

        Counts toward L1-I MPKI. May stall when no MSHR is available
        (``stalled_mshr=True``; the caller retries next cycle).
        """
        self.l1i_demand_accesses += 1
        # optional iTLB: a page walk delays the whole access
        walk = self.itlb.translate(line) if self.itlb is not None else 0
        state = self.l1i.lookup(line, cycle)
        if state is not None:
            if state.ready_cycle <= cycle:
                result = InstructionFetchResult(
                    cycle + self._l1_hit + walk, True, False, False, "l1")
                if state.unused_prefetch:
                    state.unused_prefetch = False
                    self.prefetch_useful += 1
                    result.useful_prefetch = True
                return result
            # MSHR merge: wait for the outstanding fill. A prefetch fill
            # counts as late only on its first demand merge — later merges
            # into the same fill are ordinary MLP.
            late = state.source == "prefetch" and state.unused_prefetch
            if late:
                self.prefetch_late += 1
                state.unused_prefetch = False
            return InstructionFetchResult(
                state.ready_cycle + walk, False, False, True, "pending",
                late)

        # true L1-I miss
        if self.l1i.mshr_free(cycle) <= 0:
            self.l1i_demand_accesses -= 1  # retried access; don't double count
            return InstructionFetchResult(
                cycle + 1, False, False, False, "stall",
                stalled_mshr=True)
        self.l1i_demand_misses += 1
        tel = self.tel
        if self.fec_ideal and line in self.fec_lines:
            ready = cycle + self._l1_hit + walk
            self._fill_l1(line, ready, source="fetch")
            if tel.enabled:
                tel.emit("l1i_miss", cycle, line=line,
                         served_by="fec_ideal", ready=ready)
            return InstructionFetchResult(
                ready, False, True, False, "fec_ideal")
        latency, served_by = self._inner_latency(line, cycle,
                                                 is_instruction=True)
        ready = cycle + self._l1_hit + latency + walk
        self._fill_l1(line, ready, source="fetch")
        if tel.enabled:
            tel.emit("l1i_miss", cycle, line=line, served_by=served_by,
                     ready=ready)
        return InstructionFetchResult(
            ready, False, True, False, served_by)

    def prefetch_instruction(self, line: int, cycle: int,
                             mshr_reserve: int = 2) -> bool:
        """PDIP/EIP prefetch of ``line``; returns True if issued.

        Follows the paper's demand-priority rule: the prefetch is dropped
        unless at least ``mshr_reserve`` MSHRs would remain free for
        demand traffic. A probe hit (already resident) is a no-op.
        """
        if self.l1i.probe(line):
            return False
        if self.l1i.mshr_free(cycle) <= mshr_reserve:
            self.prefetches_dropped += 1
            tel = self.tel
            if tel.enabled:
                tel.emit("pq_drop", cycle, line=line, reason="mshr")
            return False
        self.prefetches_issued += 1
        self.prefetched_lines.add(line)
        if self.zero_cost_prefetch:
            self._fill_l1(line, cycle, source="prefetch")
            return True
        latency, _ = self._inner_latency(line, cycle, is_instruction=True)
        ready = cycle + self._l1_hit + latency
        self._fill_l1(line, ready, source="prefetch")
        return True

    # ------------------------------------------------------------------
    # data stream
    # ------------------------------------------------------------------
    def data_access(self, line: int, cycle: int) -> "tuple[int, bool]":
        """Back-end data access that missed the L1-D and reaches the L2.

        Data lines are tagged with a high bit by the caller so they never
        collide with instruction line numbers. Returns
        ``(ready_cycle, l2_hit)``.
        """
        self.l2_data_accesses += 1
        # inlined l2.lookup hit path (the common case for the Zipf head)
        l2 = self.l2
        l2.accesses += 1
        state = l2._lines.get(line)
        if state is not None:
            clock = l2._clock + 1
            l2._clock = clock
            state.lru = clock
            ready = state.ready_cycle
            return (ready if ready > cycle else cycle) + self._l2_hit, True
        l2.misses += 1
        self.l2_data_misses += 1
        latency = self._l3_latency(line, cycle)
        ready = cycle + self._l2_hit + latency
        self.l2.fill_quick(line, ready, is_instruction=False)
        return ready, False

    # ------------------------------------------------------------------
    # FEC bookkeeping
    # ------------------------------------------------------------------
    def promote_fec(self, line: int) -> bool:
        """Register a front-end-critical qualification for ``line``.

        Adds the line to the FEC set (used by FEC-Ideal) and forwards the
        promotion request to the L2 replacement policy (EMISSARY applies
        its 1/32 promotion probability; LRU ignores it).
        """
        self.fec_lines.add(line)
        state = self.l2.get_state(line)
        if state is None:
            return False
        return self.l2_policy.on_promote(state, self.l2.set_occupancy(line))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _fill_l1(self, line: int, ready: int, source: str) -> None:
        _, evicted = self.l1i.fill_quick(line, ready, is_instruction=True,
                                         source=source)
        if evicted is not None and evicted.unused_prefetch:
            self.prefetch_useless += 1

    def _inner_latency(self, line: int, cycle: int,
                       is_instruction: bool) -> "tuple[int, str]":
        """Latency beyond the L1 for ``line``, filling L2/L3 on the way."""
        l2_hit = self._l2_hit
        if is_instruction:
            self.l2_inst_accesses += 1
        state = self.l2.lookup(line, cycle)
        if state is not None:
            extra = max(0, state.ready_cycle - cycle)
            return l2_hit + extra, "l2"
        if is_instruction:
            self.l2_inst_misses += 1
        latency = self._l3_latency(line, cycle)
        ready = cycle + l2_hit + latency
        self.l2.fill_quick(line, ready, is_instruction=is_instruction)
        return l2_hit + latency, "l3+"

    def _l3_latency(self, line: int, cycle: int) -> int:
        self.l3_accesses += 1
        state = self.l3.lookup(line, cycle)
        if state is not None:
            extra = max(0, state.ready_cycle - cycle)
            return self._l3_hit + extra
        self.l3_misses += 1
        miss_latency = self._l3_hit + self._mem_lat
        self.l3.fill_quick(line, cycle + miss_latency)
        return miss_latency
