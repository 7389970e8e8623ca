"""Prefetch Queue (PQ).

Buffers prefetch requests from PDIP/EIP between the prefetcher and the
L1-I, enforcing the paper's demand-priority rules (Section 5): a request
is dropped if the PQ is full; when serviced, it probes the L1-I and only
forwards to the L2 on a probe miss and only while enough MSHRs remain
free for demand fetches.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.memory.hierarchy import MemoryHierarchy
from repro.telemetry.handle import NULL_RECORDER


class PrefetchQueue:
    """Bounded FIFO of prefetch line addresses (Table 1: 40 entries).

    Requests are stored as bare line numbers (the cheapest possible
    "request record" — no per-request object allocation on the hot
    path) with a mirror set for O(1) duplicate filtering.
    """

    __slots__ = ("hierarchy", "capacity", "issue_width", "mshr_reserve",
                 "_q", "_queued", "requests", "dropped_full", "issued",
                 "filtered_resident", "tel")

    def __init__(self, hierarchy: MemoryHierarchy, capacity: int = 40,
                 issue_width: int = 2, mshr_reserve: int = 2):
        self.hierarchy = hierarchy
        self.capacity = capacity
        self.issue_width = issue_width
        self.mshr_reserve = mshr_reserve
        self._q: Deque[int] = deque()
        self._queued = set()
        self.requests = 0
        self.dropped_full = 0
        self.issued = 0
        self.filtered_resident = 0
        #: telemetry handle (no-op unless a TelemetrySession attaches)
        self.tel = NULL_RECORDER

    def __len__(self) -> int:
        return len(self._q)

    def request(self, line: int, cycle: int = 0) -> bool:
        """Enqueue a prefetch for ``line``; False if dropped (PQ full/dup).

        ``cycle`` only timestamps telemetry drop events; it does not
        affect queueing.
        """
        self.requests += 1
        if line in self._queued:
            tel = self.tel
            if tel.enabled:
                tel.emit("pq_drop", cycle, line=line, reason="dup")
            return False
        if len(self._q) >= self.capacity:
            self.dropped_full += 1
            tel = self.tel
            if tel.enabled:
                tel.emit("pq_drop", cycle, line=line, reason="full")
            return False
        self._q.append(line)
        self._queued.add(line)
        return True

    def tick(self, cycle: int) -> int:
        """Service up to ``issue_width`` queued prefetches; returns count issued."""
        q = self._q
        if not q:
            return 0
        issued = 0
        queued = self._queued
        hierarchy = self.hierarchy
        probe = hierarchy.l1i.probe
        prefetch = hierarchy.prefetch_instruction
        reserve = self.mshr_reserve
        tel = self.tel
        for _ in range(min(self.issue_width, len(q))):
            line = q.popleft()
            queued.discard(line)
            if probe(line):
                self.filtered_resident += 1
                continue
            if prefetch(line, cycle, mshr_reserve=reserve):
                issued += 1
                self.issued += 1
                if tel.enabled:
                    tel.emit("pq_issue", cycle, line=line)
        return issued

    def flush(self) -> None:
        """Drop all queued requests."""
        self._q.clear()
        self._queued.clear()
