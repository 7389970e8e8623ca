"""EIP — Entangling Instruction Prefetcher (Ros & Jimborean, ISCA '21),
reimplemented the way the paper models it in gem5 (Section 6.5):

* a 40-entry history buffer of committed block accesses with timestamps,
  maintained at commit so wrong-path fetch never pollutes it;
* on commit of a block whose line missed with latency L, the miss is
  *entangled* with the history entry fetched ~L cycles earlier (the entry
  with enough lead time to have hidden the miss);
* on each new FTQ entry, the entangling table is looked up with the
  entry's lines and every entangled destination is prefetched through the
  same PQ/MSHR discipline PDIP uses.

Two variants:

* ``EIPPrefetcher`` with a KB budget — set-associative entangling table
  (tag + up to ``dsts_per_entry`` destinations of 34 bits each);
* the *analytical* variant (``analytical=True``) — unbounded table and a
  higher destination cap, the paper's performance-oriented upper bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.frontend.ftq import FTQEntry
from repro.frontend.prefetch_queue import PrefetchQueue
from repro.prefetchers.base import Prefetcher

#: per-entry storage pricing for the budgeted table (bits)
_TAG_BITS = 10
_DST_BITS = 34
_LRU_BITS = 1

#: shared miss result for the hot lookup path — treat as read-only
_EMPTY: List[int] = []


@dataclass
class EIPConfig:
    """EIP tuning knobs."""

    budget_kb: float = 46.0
    history_entries: int = 40       # paper: 40 beats 1024
    dsts_per_entry: int = 2
    analytical: bool = False
    analytical_dst_cap: int = 6
    num_sets: int = 256


class _EIPEntry:
    __slots__ = ("tag", "dsts", "lru")

    def __init__(self, tag: int):
        self.tag = tag
        self.dsts: List[int] = []
        self.lru = 0


class EIPPrefetcher(Prefetcher):
    """Entangling instruction prefetcher (budgeted or analytical)."""

    name = "eip"

    def __init__(self, pq: PrefetchQueue, config: Optional[EIPConfig] = None):
        self.pq = pq
        self.config = config if config is not None else EIPConfig()
        cfg = self.config
        # hot-path copies (the config is fixed after construction)
        self._analytical = cfg.analytical
        self._num_sets = cfg.num_sets
        if cfg.analytical:
            self.name = "eip_analytical"
            self.assoc = 0
            self._table_unbounded: Dict[int, List[int]] = {}
        else:
            bits_per_way = _TAG_BITS + _LRU_BITS + cfg.dsts_per_entry * _DST_BITS
            total_ways = int(cfg.budget_kb * 1024 * 8 / bits_per_way)
            self.assoc = max(1, total_ways // cfg.num_sets)
            self._sets: Dict[int, Dict[int, _EIPEntry]] = {}
        #: (line, fetch_cycle) of committed blocks, newest at the right
        self._history: Deque[Tuple[int, int]] = deque(maxlen=cfg.history_entries)
        self._clock = 0

        self.entangles = 0
        self.prefetch_requests = 0
        self.lookups = 0
        self.lookup_hits = 0

    # ------------------------------------------------------------------
    # FTQ-side: lookup + prefetch
    # ------------------------------------------------------------------
    def on_ftq_enqueue(self, entry: FTQEntry, cycle: int) -> None:
        """A new fetch target entered the FTQ."""
        lookup = self._lookup
        request = self.pq.request
        for line in entry.lines:
            for dst in lookup(line):
                self.prefetch_requests += 1
                request(dst, cycle)

    # ------------------------------------------------------------------
    # commit-side: history + entangling
    # ------------------------------------------------------------------
    def on_retire(self, entry: FTQEntry, cycle: int) -> None:
        """A correct-path block fully retired."""
        if entry.incurred_miss:
            # miss latency observed at fetch, applied at commit (paper);
            # a retiring entry has initiated every line fill, so
            # ready_at is the latest of them
            latency = max(0, entry.ready_at - entry.enqueue_cycle)
            src = self._find_source(entry.enqueue_cycle - latency)
            if src is not None:
                for line in entry.missed_lines:
                    if line != src:
                        self._entangle(src, line)
        for line in entry.lines:
            self._history.append((line, entry.enqueue_cycle))

    def _find_source(self, want_cycle: int) -> Optional[int]:
        """Most recent history entry fetched at or before ``want_cycle``
        (i.e. with enough lead time to hide the miss)."""
        src = None
        for line, fetched in self._history:
            if fetched <= want_cycle:
                src = line
            else:
                break
        if src is None and self._history:
            # nothing old enough: entangle with the oldest we have
            src = self._history[0][0]
        return src

    # ------------------------------------------------------------------
    # entangling table
    # ------------------------------------------------------------------
    def _entangle(self, src: int, dst: int) -> None:
        self.entangles += 1
        cfg = self.config
        if cfg.analytical:
            dsts = self._table_unbounded.setdefault(src, [])
            if dst in dsts:
                return
            if len(dsts) >= cfg.analytical_dst_cap:
                dsts.pop(0)
            dsts.append(dst)
            return
        set_idx = src % cfg.num_sets
        tag = src // cfg.num_sets
        ways = self._sets.setdefault(set_idx, {})
        self._clock += 1
        entry = ways.get(tag)
        if entry is None:
            if len(ways) >= self.assoc:
                victim = min(ways, key=lambda t: ways[t].lru)
                del ways[victim]
            entry = _EIPEntry(tag)
            ways[tag] = entry
        entry.lru = self._clock
        if dst in entry.dsts:
            return
        if len(entry.dsts) >= cfg.dsts_per_entry:
            entry.dsts.pop(0)
        entry.dsts.append(dst)

    def _lookup(self, src: int) -> List[int]:
        """Destinations entangled with ``src``.

        The returned list is the table's own storage (or the shared empty
        list) — callers only iterate it.
        """
        self.lookups += 1
        if self._analytical:
            dsts = self._table_unbounded.get(src)
            if dsts is None:
                return _EMPTY
            if dsts:
                self.lookup_hits += 1
            return dsts
        num_sets = self._num_sets
        ways = self._sets.get(src % num_sets)
        if not ways:
            return _EMPTY
        entry = ways.get(src // num_sets)
        if entry is None:
            return _EMPTY
        self._clock += 1
        entry.lru = self._clock
        self.lookup_hits += 1
        return entry.dsts

    # ------------------------------------------------------------------
    @property
    def storage_kb(self) -> float:
        """Storage footprint in kilobytes."""
        cfg = self.config
        if cfg.analytical:
            # report the (unbounded) table's current footprint
            bits = sum((_DST_BITS * len(d) + _TAG_BITS)
                       for d in self._table_unbounded.values())
            return bits / 8.0 / 1024.0
        bits_per_way = _TAG_BITS + _LRU_BITS + cfg.dsts_per_entry * _DST_BITS
        return cfg.num_sets * self.assoc * bits_per_way / 8.0 / 1024.0
