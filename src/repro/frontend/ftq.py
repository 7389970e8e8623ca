"""Fetch Target Queue.

A FIFO of basic-block fetch targets produced by the IAG. Each entry
remembers everything the later pipeline stages and the FEC classifier
need: which lines the block spans, when the FDIP prefetch's fills are
ready, whether the block sits on a wrong path, how close behind a
resteer it was enqueued, and the decode-starvation cycles it caused while
parked at the head.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence

from repro.branch.bpu import MispredictKind
from repro.workloads.layout import BasicBlock

#: hot-path copy of the no-resteer verdict every entry starts with
_NO_RESTEER = MispredictKind.NONE


class FTQEntry:
    """One basic block queued for fetch.

    A plain ``__slots__`` class with a hand-written ``__init__`` rather
    than a dataclass: the machine allocates one per enqueued block
    (including every wrong-path block), which makes construction one of
    the hottest allocation sites in the simulator. The constructor takes
    only what the IAG knows when it forms the entry; every other field
    starts at a fixed value, and the three line lists share one empty
    ``()`` until their first write (most entries hit in the L1-I and
    never write them).
    """

    __slots__ = (
        "block", "lines", "enqueue_cycle", "is_wrong_path", "taken",
        "target_addr", "mispredict", "predicted_target", "resteer_kind",
        "resteer_trigger_line", "entries_since_resteer",
        "deferred_lines", "missed_lines", "pending_lines",
        "starvation_cycles", "backend_starved", "ready_at",
    )

    def __init__(self, block: BasicBlock, lines: List[int],
                 enqueue_cycle: int, is_wrong_path: bool = False,
                 taken: bool = False, target_addr: int = 0):
        self.block = block
        self.lines = lines
        self.enqueue_cycle = enqueue_cycle
        self.is_wrong_path = is_wrong_path
        #: actual control-flow outcome (meaningless on the wrong path)
        self.taken = taken
        self.target_addr = target_addr
        #: resteer verdict the BPU issued for this block
        self.mispredict = _NO_RESTEER
        #: wrong-path start address when mispredicted
        self.predicted_target: Optional[int] = None
        #: the resteer this entry was enqueued behind: kind, trigger
        #: block line, and how many entries were enqueued since it (the
        #: "wake" distance). Recorded at enqueue — by retirement several
        #: newer resteers may have happened.
        self.resteer_kind: Optional[MispredictKind] = None
        self.resteer_trigger_line: Optional[int] = None
        self.entries_since_resteer = 1 << 30
        #: lines whose FDIP fill could not start (MSHRs exhausted); the
        #: IFU issues them as demand accesses when the entry reaches the
        #: head. A list (the tail of ``lines``) once written.
        self.deferred_lines: Sequence[int] = ()
        #: lines that newly missed the L1-I when this entry was enqueued
        #: (a list once written)
        self.missed_lines: Sequence[int] = ()
        #: lines whose fill was still pending when the FDIP stream
        #: touched them (a list once written)
        self.pending_lines: Sequence[int] = ()
        #: decode-starvation cycles charged to this entry while at the head
        self.starvation_cycles = 0
        #: True if the back end drained (issue queue empty) during that wait
        self.backend_starved = False
        #: running max of the fill-ready cycles of the entry's initiated
        #: line fills (and of ``enqueue_cycle``), kept by the machine's
        #: FDIP probe and deferred-fill paths so decode and the
        #: event-horizon scan read one int
        self.ready_at = enqueue_cycle

    @property
    def ready_cycle(self) -> int:
        """Cycle at which every *initiated* line fill completes.

        Meaningless while ``deferred_lines`` is non-empty — the IFU must
        issue those before the entry can be considered ready. Every
        fill completes at or after the enqueue cycle, so the running
        max ``ready_at`` is exactly the latest fill.
        """
        return self.ready_at

    @property
    def incurred_miss(self) -> bool:
        """True if any of the entry's lines missed or merged."""
        return bool(self.missed_lines) or bool(self.pending_lines)


class FTQ:
    """Bounded FIFO of :class:`FTQEntry` (default depth 24, like Table 1)."""

    __slots__ = ("depth", "_q", "enqueues", "flushes", "flushed_entries")

    def __init__(self, depth: int = 24):
        if depth <= 0:
            raise ValueError("FTQ depth must be positive")
        self.depth = depth
        self._q: Deque[FTQEntry] = deque()
        self.enqueues = 0
        self.flushes = 0
        self.flushed_entries = 0

    def __len__(self) -> int:
        return len(self._q)

    @property
    def full(self) -> bool:
        """True when the queue is at capacity."""
        return len(self._q) >= self.depth

    @property
    def empty(self) -> bool:
        """True when the queue holds nothing."""
        return not self._q

    def push(self, entry: FTQEntry) -> None:
        """Append ``entry`` at the tail (``_iag_fill`` inlines this for
        the entries it has room for)."""
        if self.full:
            raise RuntimeError("push on full FTQ")
        self._q.append(entry)
        self.enqueues += 1

    def head(self) -> Optional[FTQEntry]:
        """Oldest entry without removing it (None if empty)."""
        return self._q[0] if self._q else None

    def pop(self) -> FTQEntry:
        """Remove and return the oldest entry."""
        return self._q.popleft()

    def flush(self) -> int:
        """Drop every queued entry (front-end resteer); returns the count."""
        n = len(self._q)
        self._q.clear()
        self.flushes += 1
        self.flushed_entries += n
        return n

    def occupancy(self) -> int:
        """Number of live entries."""
        return len(self._q)

    def __iter__(self):
        return iter(self._q)

