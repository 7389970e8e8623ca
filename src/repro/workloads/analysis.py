"""Workload characterization: the numbers that place a workload in (or
out of) the paper's regime.

The paper selects benchmarks by L1-I MPKI > 20 (Section 6.3) and
motivates PDIP with footprint and reuse-distance arguments. This module
computes those characteristics *directly from the instruction stream*,
independent of any machine configuration:

* static footprint (functions, blocks, lines, bytes);
* dynamic instruction mix (branch kinds, taken rate);
* the cache-line **reuse-distance profile** (how many distinct lines are
  touched between consecutive uses of the same line), from which the
  miss rate of any LRU cache size can be read off;
* working-set curves (distinct lines touched in sliding windows).

Used by the calibration workflow that tuned the 16 profiles and exposed
through ``python -m repro workload <name>``.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.workloads.generator import generate_layout
from repro.workloads.layout import CodeLayout
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.walker import PathWalker


@dataclass
class ReuseDistanceProfile:
    """Histogram of LRU stack distances of the line-access stream."""

    #: bucket upper bounds (distinct lines), ascending
    bucket_bounds: Tuple[int, ...]
    #: accesses whose reuse distance falls in each bucket
    bucket_counts: List[int]
    cold_accesses: int = 0
    total_accesses: int = 0

    def miss_rate_at(self, cache_lines: int) -> float:
        """Fraction of accesses an LRU cache of ``cache_lines`` misses.

        An access misses when its reuse distance is >= the cache size
        (fully-associative approximation); cold accesses always miss.
        """
        if self.total_accesses == 0:
            return 0.0
        misses = self.cold_accesses
        for bound, count in zip(self.bucket_bounds, self.bucket_counts):
            if bound > cache_lines:
                misses += count
        return misses / self.total_accesses


@dataclass
class WorkloadCharacteristics:
    """Everything the characterization pass measures."""

    name: str
    # static
    functions: int
    blocks: int
    footprint_lines: int
    footprint_bytes: int
    # dynamic
    instructions: int
    block_events: int
    taken_fraction: float
    branch_mix: Dict[str, float]
    mean_block_instructions: float
    live_lines: int
    reuse: ReuseDistanceProfile
    #: distinct lines per 10k-instruction window (mean)
    working_set_10k: float

    def estimated_l1i_mpki(self, cache_lines: int = 128) -> float:
        """Back-of-envelope L1-I MPKI for an LRU cache (default: the
        scaled 8 KB L1-I = 128 lines)."""
        accesses_per_ki = (self.reuse.total_accesses
                           / max(1, self.instructions) * 1000.0)
        return accesses_per_ki * self.reuse.miss_rate_at(cache_lines)


#: reuse-distance bucket bounds (distinct lines)
_BUCKETS = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 1 << 30)


class _LRUStack:
    """Exact LRU stack-distance tracker (O(log n) per access)."""

    def __init__(self) -> None:
        self._time: Dict[int, int] = {}
        self._stack: List[int] = []  # sorted access times of live lines
        self._clock = 0

    def access(self, line: int) -> Optional[int]:
        """Return the stack distance of this access (None if cold)."""
        self._clock += 1
        last = self._time.get(line)
        distance = None
        if last is not None:
            idx = bisect.bisect_left(self._stack, last)
            distance = len(self._stack) - idx - 1
            self._stack.pop(idx)
        self._stack.append(self._clock)
        self._time[line] = self._clock
        return distance


def characterize(profile: WorkloadProfile, instructions: int = 200_000,
                 seed: int = 1,
                 layout: Optional[CodeLayout] = None) -> WorkloadCharacteristics:
    """Run the walker for ``instructions`` and measure the stream."""
    if layout is None:
        layout = generate_layout(profile, seed=seed)
    walker = PathWalker(layout, seed=seed,
                        indirect_noise=profile.indirect_noise)

    lru = _LRUStack()
    bucket_counts = [0] * len(_BUCKETS)
    cold = 0
    total_accesses = 0
    kinds: Counter = Counter()
    taken = 0
    events = 0
    instr = 0
    live: set = set()
    window_lines: set = set()
    window_start = 0
    window_sizes: List[int] = []

    while instr < instructions:
        ev = walker.next_event()
        events += 1
        instr += ev.block.num_instructions
        kinds[ev.block.kind.value] += 1
        taken += ev.taken
        for line in ev.block.lines():
            total_accesses += 1
            live.add(line)
            window_lines.add(line)
            distance = lru.access(line)
            if distance is None:
                cold += 1
            else:
                bucket_counts[bisect.bisect_left(_BUCKETS, distance + 1)] += 1
        if instr - window_start >= 10_000:
            window_sizes.append(len(window_lines))
            window_lines = set()
            window_start = instr

    reuse = ReuseDistanceProfile(bucket_bounds=_BUCKETS,
                                 bucket_counts=bucket_counts,
                                 cold_accesses=cold,
                                 total_accesses=total_accesses)
    return WorkloadCharacteristics(
        name=profile.name,
        functions=len(layout.functions),
        blocks=layout.num_blocks,
        footprint_lines=layout.footprint_lines(),
        footprint_bytes=layout.footprint_bytes(),
        instructions=instr,
        block_events=events,
        taken_fraction=taken / max(1, events),
        branch_mix={k: v / events for k, v in kinds.items()},
        mean_block_instructions=instr / max(1, events),
        live_lines=len(live),
        reuse=reuse,
        working_set_10k=(sum(window_sizes) / len(window_sizes)
                         if window_sizes else float(len(live))),
    )


def render(ch: WorkloadCharacteristics) -> str:
    """Human-readable characterization report."""
    lines = [
        f"Workload: {ch.name}",
        "=" * (10 + len(ch.name)),
        f"static:  {ch.functions} functions, {ch.blocks} blocks, "
        f"{ch.footprint_lines} lines ({ch.footprint_bytes // 1024} KB text)",
        f"dynamic: {ch.instructions:,} instructions, "
        f"{ch.mean_block_instructions:.1f} instr/block, "
        f"{ch.taken_fraction:.0%} taken transfers",
        f"live set: {ch.live_lines} lines; "
        f"~{ch.working_set_10k:.0f} lines per 10k instructions",
        "",
        "branch mix:",
    ]
    for kind, frac in sorted(ch.branch_mix.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {kind:14s} {frac:6.1%}")
    lines.append("")
    lines.append("LRU miss rate by cache size (fully associative):")
    for cache_lines in (64, 128, 256, 512, 1024):
        rate = ch.reuse.miss_rate_at(cache_lines)
        kb = cache_lines * 64 // 1024
        lines.append(f"  {kb:4d} KB ({cache_lines:5d} lines): "
                     f"{rate:6.1%}  (~{ch.estimated_l1i_mpki(cache_lines):.0f} MPKI)")
    return "\n".join(lines)
