"""Front-end-critical (FEC) line classification.

A line is FEC when (Section 2.1): (1) it retired an instruction, (2) it
missed the instruction cache, and (3) the miss produced front-end stalls.
The classifier runs at block retirement, consuming the bookkeeping the
FTQ entry accumulated on its way through the pipeline, and emits one
:class:`FECEvent` per qualifying line.

Trigger attribution (Section 4.2): a qualifying line fetched within the
*wake* of a resteer (the FTQ had not yet refilled) is attributed to the
resteer-causing instruction's block; a qualifying line with no nearby
resteer is a long-latency miss attributed to the last retired taken
branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Set

from repro.branch.bpu import MispredictKind
from repro.frontend.ftq import FTQEntry
from repro.utils import SLOTTED


class TriggerType(Enum):
    """What kind of front-end disruption exposed the miss."""

    MISPREDICT = "mispredict"    # branch/indirect/BTB-target mispredict
    BTB_MISS = "btb_miss"        # taken branch unknown to the IAG
    LAST_TAKEN = "last_taken"    # long-latency miss; no resteer nearby


@dataclass(**SLOTTED)
class FECEvent:
    """One line qualifying as front-end critical at retirement."""

    line: int
    starvation_cycles: int
    backend_starved: bool
    trigger_line: Optional[int]
    trigger_type: TriggerType
    #: the precise resteer kind, when the trigger is a resteer (lets PDIP
    #: skip return-jump triggers, Section 5.2)
    resteer_kind: Optional[MispredictKind] = None

    def is_high_cost(self, threshold: int = 10) -> bool:
        """The paper's high-cost FEC category (>10 starvation cycles)."""
        return self.starvation_cycles > threshold


class FECClassifier:
    """Retire-time FEC qualification and statistics."""

    def __init__(self, wake_window: int = 24, high_cost_threshold: int = 10):
        #: how many FTQ entries after a resteer count as its "wake"
        #: (defaults to the FTQ depth: beyond that the queue has refilled)
        self.wake_window = wake_window
        self.high_cost_threshold = high_cost_threshold

        self.fec_lines: Set[int] = set()
        self.fec_events = 0
        self.high_cost_events = 0
        self.high_cost_backend_events = 0
        self.fec_starvation_cycles = 0
        self.retired_line_accesses = 0
        self.retired_lines_seen: Set[int] = set()

    def on_retire(self, entry: FTQEntry,
                  resteer_kind: Optional[MispredictKind],
                  resteer_trigger_line: Optional[int],
                  last_taken_line: Optional[int]) -> List[FECEvent]:
        """Classify a retiring block's lines.

        ``resteer_kind``/``resteer_trigger_line`` describe the resteer the
        entry was enqueued behind (already matched by id by the caller);
        ``last_taken_line`` is the block address of the last retired taken
        branch (the long-latency trigger).
        """
        self.retired_line_accesses += len(entry.lines)
        self.retired_lines_seen.update(entry.lines)
        if not entry.incurred_miss or entry.starvation_cycles <= 0:
            return []

        in_wake = (entry.entries_since_resteer <= self.wake_window
                   and resteer_trigger_line is not None)
        if in_wake:
            if resteer_kind is MispredictKind.BTB_MISS:
                ttype = TriggerType.BTB_MISS
            else:
                ttype = TriggerType.MISPREDICT
            trigger = resteer_trigger_line
        else:
            ttype = TriggerType.LAST_TAKEN
            trigger = last_taken_line

        events = []
        missed = list(dict.fromkeys([*entry.missed_lines,
                                     *entry.pending_lines]))
        for line in missed:
            event = FECEvent(
                line=line,
                starvation_cycles=entry.starvation_cycles,
                backend_starved=entry.backend_starved,
                trigger_line=trigger,
                trigger_type=ttype,
                resteer_kind=resteer_kind if in_wake else None,
            )
            events.append(event)
            self.fec_lines.add(line)
            self.fec_events += 1
            self.fec_starvation_cycles += entry.starvation_cycles
            if event.is_high_cost(self.high_cost_threshold):
                self.high_cost_events += 1
                if event.backend_starved:
                    self.high_cost_backend_events += 1
        return events

    # -- reporting ----------------------------------------------------------
    def fec_line_fraction(self) -> float:
        """Distinct FEC lines / distinct retired lines (Fig. 4, first bar)."""
        if not self.retired_lines_seen:
            return 0.0
        return len(self.fec_lines) / len(self.retired_lines_seen)
