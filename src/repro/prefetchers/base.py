"""Hook surface between the simulator and a prefetcher."""

from __future__ import annotations

from typing import List

from repro.core.fec import FECEvent
from repro.frontend.ftq import FTQEntry


class Prefetcher:
    """Base class; every hook is a no-op.

    The simulator calls:

    * :meth:`on_ftq_enqueue` for every new FTQ entry (correct or wrong
      path) — where trigger lookups happen;
    * :meth:`on_retire` when a block's last instruction retires — where
      commit-time training happens;
    * :meth:`on_fec_events` with the retire-time FEC qualifications.

    The machine binds each hook once, when it is built, and never calls
    one that the prefetcher's class inherits from this base: override a
    hook in a subclass, not on an instance.
    """

    name = "none"

    def on_ftq_enqueue(self, entry: FTQEntry, cycle: int) -> None:
        """A new fetch target entered the FTQ."""

    def on_retire(self, entry: FTQEntry, cycle: int) -> None:
        """A correct-path block fully retired."""

    def on_fec_events(self, events: List[FECEvent], cycle: int) -> None:
        """Retire-time FEC qualifications for a block's lines."""

    def observe_branch(self, branch_block_line: int) -> None:
        """A taken branch entered the FTQ (path-history consumers only)."""

    @property
    def storage_kb(self) -> float:
        """Storage footprint in kilobytes."""
        return 0.0


class NoPrefetcher(Prefetcher):
    """FDIP-only baseline: the FTQ is the only prefetch mechanism."""

    name = "baseline"
