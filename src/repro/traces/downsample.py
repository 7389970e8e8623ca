"""Deterministic downsampling of block-event streams.

Real traces run to hundreds of millions of instructions; the simulator's
budgets are O(100K).  Naive head-truncation would erase exactly the
structure external traces are here to provide (late phases, cold
bursts), so the sampler is *windowed and phase-aware*:

1. The event stream is cut into consecutive windows of ``window`` block
   events.
2. Each window gets a **novelty score**: the fraction of its static
   blocks never seen in any earlier window.  A phase change — the
   program moving onto code it has not touched — shows up as a novelty
   spike, so windows with novelty >= ``phase_threshold`` are *phase
   heads* and are always kept (in order, until the budget runs out).
3. The remaining instruction budget is filled with non-head windows
   chosen by a seeded shuffle (:func:`repro.utils.derive_rng`, stream
   ``"trace-downsample"``), then re-sorted chronologically so the kept
   stream preserves the original phase order.

The output is a pure function of ``(events, budget, window, seed)`` —
the ingest digest over the kept events is golden-pinned in the tests, so
any change to this algorithm is a schema event, not a silent drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.traces.schema import BlockEvent, TraceIngestError
from repro.utils import derive_rng

DEFAULT_BUDGET = 120_000  # instructions
DEFAULT_WINDOW = 1024     # block events per window
PHASE_THRESHOLD = 0.25    # novelty fraction that marks a phase head

#: Per-block instruction estimates are clamped here so one absurd
#: address span (e.g. a trace that jumps across a library) cannot eat
#: the whole budget or produce a pathological layout block.
MAX_BLOCK_INSTRUCTIONS = 64


def estimate_instructions(event: BlockEvent, isize: int) -> int:
    """Estimated instructions retired by one block execution."""
    span = max(0, event.end - event.start)
    return max(1, min(MAX_BLOCK_INSTRUCTIONS, span // max(1, isize) + 1))


@dataclass(frozen=True)
class DownsampleReport:
    """What the sampler did — carried into the ingest report and trace row."""

    events_in: int
    events_kept: int
    instructions_in: int
    instructions_kept: int
    windows_total: int
    windows_kept: int
    phase_windows: int
    budget: int
    window: int
    seed: int

    @property
    def sampled(self) -> bool:
        return self.events_kept < self.events_in


def downsample_events(
    events: List[BlockEvent],
    isize: int,
    budget: int = DEFAULT_BUDGET,
    window: int = DEFAULT_WINDOW,
    seed: int = 0,
    phase_threshold: float = PHASE_THRESHOLD,
) -> Tuple[List[BlockEvent], DownsampleReport]:
    """Cut *events* down to ~*budget* estimated instructions.

    Returns ``(kept_events, report)``.  Raises
    :class:`TraceIngestError` (category ``budget-too-small``) when the
    budget cannot fit even the entry window.
    """
    if budget <= 0 or window <= 0:
        raise TraceIngestError(
            "budget and window must be positive (budget=%d window=%d)"
            % (budget, window),
            category="budget-too-small")
    instr = [estimate_instructions(ev, isize) for ev in events]
    total = sum(instr)
    if total <= budget:
        report = DownsampleReport(
            events_in=len(events), events_kept=len(events),
            instructions_in=total, instructions_kept=total,
            windows_total=1, windows_kept=1, phase_windows=1,
            budget=budget, window=window, seed=seed)
        return list(events), report

    # window index -> (event slice bounds, instruction count, novelty)
    bounds: List[Tuple[int, int]] = []
    win_instr: List[int] = []
    novelty: List[float] = []
    seen: Set[Tuple[int, int]] = set()
    for lo in range(0, len(events), window):
        hi = min(lo + window, len(events))
        keys = {events[i].key() for i in range(lo, hi)}
        fresh = len(keys - seen)
        novelty.append(fresh / len(keys))
        seen |= keys
        bounds.append((lo, hi))
        win_instr.append(sum(instr[lo:hi]))

    if win_instr[0] > budget:
        raise TraceIngestError(
            "budget %d cannot fit the entry window (%d instructions); "
            "raise --budget or shrink --window" % (budget, win_instr[0]),
            category="budget-too-small")

    heads = [i for i, nov in enumerate(novelty) if nov >= phase_threshold]
    chosen: List[int] = []
    spent = 0
    for i in heads:  # chronological: early phases win when heads alone overflow
        if spent + win_instr[i] > budget:
            continue
        chosen.append(i)
        spent += win_instr[i]

    rest = [i for i in range(len(bounds)) if i not in set(chosen)]
    derive_rng(seed, "trace-downsample").shuffle(rest)
    for i in rest:
        if spent + win_instr[i] > budget:
            continue
        chosen.append(i)
        spent += win_instr[i]

    chosen.sort()
    kept: List[BlockEvent] = []
    for i in chosen:
        lo, hi = bounds[i]
        kept.extend(events[lo:hi])
    report = DownsampleReport(
        events_in=len(events), events_kept=len(kept),
        instructions_in=total, instructions_kept=spent,
        windows_total=len(bounds), windows_kept=len(chosen),
        phase_windows=len(heads),
        budget=budget, window=window, seed=seed)
    return kept, report
