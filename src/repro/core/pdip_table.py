"""The PDIP table (paper Sections 5.1 and 5.4).

Geometry: a fixed 512 sets; associativity is the sizing knob (2-way ≈
11 KB … 16-way ≈ 87 KB). Each way holds:

* a 10-bit tag of the trigger block address,
* one LRU bit (we model precise LRU with a counter; storage is priced at
  the paper's 1 bit/way),
* two targets, each a 34-bit FEC line address plus a 4-bit mask naming
  any of the four following cache blocks to prefetch alongside.

Bits/way = 10 + 1 + 2*(34+4) = 87, so 512 sets x 8 ways = 356,352 bits =
43.5 KB, matching the paper's arithmetic exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.utils import SLOTTED

#: the paper evaluates every configuration at 512 sets
PDIP_TABLE_SETS = 512

#: tag width validated by the paper to reduce aliasing
TAG_BITS = 10

#: physical line-address bits per target
TARGET_BITS = 34

#: following-blocks mask width
MASK_BITS = 4

#: targets per entry ("95% of targets are stored with 2 targets per entry")
TARGETS_PER_ENTRY = 2

#: shared miss result for :meth:`PDIPTable.lookup` — most lookups miss,
#: so they all return this one list; callers must treat it as read-only
_EMPTY: List["tuple[int, str]"] = []


@dataclass(**SLOTTED)
class PDIPTarget:
    """A prefetch target: base FEC line + mask of following blocks."""

    line: int
    mask: int = 0  # bit k set => also prefetch line + (k+1)
    #: trigger type recorded at insertion (analysis only, not storage):
    #: "mispredict"-family or "last_taken" (Fig. 16)
    trigger_type: str = "mispredict"


@dataclass(**SLOTTED)
class PDIPEntry:
    """One way: trigger tag plus up to two masked targets."""

    tag: int
    targets: List[PDIPTarget] = field(default_factory=list)
    lru: int = 0
    #: optional path signature (hash of the last branches leading to the
    #: trigger) — the Section 5.2 variant the paper evaluated and dropped
    path: Optional[int] = None


class PDIPTable:
    """Set-associative trigger -> prefetch-target store."""

    def __init__(self, assoc: int = 8, num_sets: int = PDIP_TABLE_SETS,
                 targets_per_entry: int = TARGETS_PER_ENTRY,
                 mask_bits: int = MASK_BITS):
        if assoc <= 0 or num_sets <= 0:
            raise ValueError("assoc and num_sets must be positive")
        self.assoc = assoc
        self.num_sets = num_sets
        self.targets_per_entry = targets_per_entry
        self.mask_bits = mask_bits
        self._sets: Dict[int, Dict[int, PDIPEntry]] = {}
        self._clock = 0

        self.inserts = 0
        self.target_inserts = 0
        self.mask_merges = 0
        self.evictions = 0
        self.lookups = 0
        self.hits = 0

    # -- indexing ----------------------------------------------------------
    def _index(self, trigger_line: int) -> "tuple[int, int]":
        set_idx = trigger_line % self.num_sets
        tag = (trigger_line // self.num_sets) & ((1 << TAG_BITS) - 1)
        return set_idx, tag

    # -- operations ----------------------------------------------------------
    def insert(self, trigger_line: int, target_line: int,
               trigger_type: str = "mispredict",
               path: Optional[int] = None) -> None:
        """Associate ``target_line`` (an FEC line) with ``trigger_line``.

        If the target falls within ``mask_bits`` blocks after an existing
        target of the same trigger, it is folded into that target's mask
        (the paper's compaction for basic blocks spanning several lines).
        """
        set_idx, tag = self._index(trigger_line)
        ways = self._sets.setdefault(set_idx, {})
        self._clock += 1
        entry = ways.get(tag)
        if entry is None:
            if len(ways) >= self.assoc:
                victim = min(ways, key=lambda t: ways[t].lru)
                del ways[victim]
                self.evictions += 1
            entry = PDIPEntry(tag=tag, lru=self._clock)
            ways[tag] = entry
            self.inserts += 1
        entry.lru = self._clock
        entry.path = path

        for tgt in entry.targets:
            if tgt.line == target_line:
                return
            delta = target_line - tgt.line
            if 1 <= delta <= self.mask_bits:
                new_mask = tgt.mask | (1 << (delta - 1))
                if new_mask != tgt.mask:
                    tgt.mask = new_mask
                    self.mask_merges += 1
                return
        if len(entry.targets) >= self.targets_per_entry:
            # displace the older target (simple FIFO within the entry)
            entry.targets.pop(0)
        entry.targets.append(
            PDIPTarget(line=target_line, trigger_type=trigger_type))
        self.target_inserts += 1

    def lookup(self, trigger_line: int,
               path: Optional[int] = None) -> List["tuple[int, str]"]:
        """(prefetch line, trigger type) pairs for ``trigger_line``.

        Empty on a miss. Each target yields its base line, then one line
        per set bit of its ``mask_bits``-wide mask. The trigger type rides
        along for the Fig. 16 issued-prefetch distribution.
        """
        self.lookups += 1
        num_sets = self.num_sets
        ways = self._sets.get(trigger_line % num_sets)
        if not ways:
            return _EMPTY
        entry = ways.get((trigger_line // num_sets) & ((1 << TAG_BITS) - 1))
        if entry is None:
            return _EMPTY
        if (path is not None and entry.path is not None
                and entry.path != path):
            return _EMPTY  # path-augmented variant: TAG matched, path did not
        self._clock += 1
        entry.lru = self._clock
        self.hits += 1
        out: List["tuple[int, str]"] = []
        append = out.append
        mask_bits = self.mask_bits
        for tgt in entry.targets:
            base = tgt.line
            ttype = tgt.trigger_type
            append((base, ttype))
            mask = tgt.mask
            if mask:
                for k in range(mask_bits):
                    if mask & (1 << k):
                        append((base + k + 1, ttype))
        return out

    # -- reporting ----------------------------------------------------------
    @property
    def bits_per_way(self) -> int:
        """Storage bits per table way."""
        return (TAG_BITS + 1
                + self.targets_per_entry * (TARGET_BITS + self.mask_bits))

    @property
    def storage_bits(self) -> int:
        """Storage footprint in bits."""
        return self.num_sets * self.assoc * self.bits_per_way

    @property
    def storage_kb(self) -> float:
        """Storage footprint in kilobytes."""
        return self.storage_bits / 8.0 / 1024.0

    def occupancy(self) -> int:
        """Number of live entries."""
        return sum(len(ways) for ways in self._sets.values())
