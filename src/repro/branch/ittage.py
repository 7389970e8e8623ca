"""ITTAGE indirect target predictor (Seznec, CBP-2 2011).

Same tagged-geometric structure as TAGE, but entries hold full target
addresses and a confidence counter. The base predictor is a direct-mapped
last-target table. Provider selection mirrors TAGE: longest matching
history wins; low-confidence providers fall back to the alternate.
"""

from __future__ import annotations

from typing import List, Optional

from repro.branch.tage import GlobalHistory
from repro.utils import derive_rng


class _ITEntry:
    __slots__ = ("tag", "target", "conf", "useful")

    def __init__(self) -> None:
        self.tag = 0
        self.target = 0
        self.conf = 0     # 2-bit confidence
        self.useful = 0   # 1-bit usefulness


class ITTAGEPredictor:
    """Indirect target predictor with tagged geometric history tables."""

    def __init__(self, num_tables: int = 6, log_entries: int = 10,
                 min_history: int = 4, max_history: int = 120,
                 tag_bits: int = 11, log_base_entries: int = 11,
                 target_bits: int = 34, seed: int = 0):
        self.num_tables = num_tables
        self.log_entries = log_entries
        self.tag_bits = tag_bits
        self.log_base_entries = log_base_entries
        self.target_bits = target_bits
        self._rng = derive_rng(seed, "ittage")

        self._base: List[Optional[int]] = [None] * (1 << log_base_entries)
        self._tables: List[List[Optional[_ITEntry]]] = [
            [None] * (1 << log_entries) for _ in range(num_tables)
        ]
        self.history = GlobalHistory(num_tables, min_history, max_history,
                                     log_entries, tag_bits)
        # bound once: predict() reads these per indirect
        self._idx_rows = self.history.idx_rows
        self._tag1_rows = self.history.tag1_rows
        self._tag2_rows = self.history.tag2_rows
        self._push = self.history.push

        self.predictions = 0
        self.mispredicts = 0

        self._provider: Optional[int] = None
        self._provider_idx = 0
        self._base_idx = 0

    # -- prediction -----------------------------------------------------------
    def predict(self, pc: int) -> Optional[int]:
        """Predicted target address for the indirect branch at ``pc``.

        Returns None when neither the tagged tables nor the last-target
        base have any information.
        """
        self.predictions += 1
        self._base_idx = (pc >> 2) & ((1 << self.log_base_entries) - 1)
        prediction = self._base[self._base_idx]
        self._provider = None
        # GlobalHistory.index/tag, hoisted (this loop runs per indirect)
        log_entries = self.log_entries
        idx_mask = (1 << log_entries) - 1
        tag_mask = (1 << self.tag_bits) - 1
        pc_idx = pc ^ (pc >> log_entries)
        tables = self._tables
        idx_rows = self._idx_rows
        tag1_rows = self._tag1_rows
        tag2_rows = self._tag2_rows
        for t in range(self.num_tables - 1, -1, -1):
            idx = (pc_idx ^ idx_rows[t][0]) & idx_mask
            entry = tables[t][idx]
            if entry is not None and entry.tag == (
                    pc ^ tag1_rows[t][0]
                    ^ (tag2_rows[t][0] << 1)) & tag_mask:
                self._provider = t
                self._provider_idx = idx
                if entry.conf > 0 or prediction is None:
                    prediction = entry.target
                break
        return prediction

    # -- update ---------------------------------------------------------------
    def update(self, pc: int, target: int, predicted: Optional[int]) -> None:
        """Train on the resolved target; must follow the matching predict()."""
        correct = predicted == target
        if not correct:
            self.mispredicts += 1
        provider = self._provider
        if provider is not None:
            entry = self._tables[provider][self._provider_idx]
            if entry is not None:
                if entry.target == target:
                    entry.conf = min(entry.conf + 1, 3)
                    entry.useful = 1
                else:
                    if entry.conf > 0:
                        entry.conf -= 1
                    else:
                        entry.target = target
                        entry.useful = 0
        self._base[self._base_idx] = target

        if not correct:
            history = self.history
            start = (provider + 1) if provider is not None else 0
            for t in range(start, self.num_tables):
                idx = history.index(pc, t)
                entry = self._tables[t][idx]
                if entry is None or entry.useful == 0:
                    if entry is None:
                        entry = _ITEntry()
                        self._tables[t][idx] = entry
                    entry.tag = history.tag(pc, t)
                    entry.target = target
                    entry.conf = 1
                    entry.useful = 0
                    break

        # Indirect history injects four hashed target bits per resolution.
        # Low and high target bits are mixed so that targets differing
        # only in high bits (different functions) or only in low bits
        # (blocks within a function) still produce distinct history.
        mixed = target ^ (target >> 10)
        self._push(((mixed >> 2) & 1, (mixed >> 3) & 1,
                    (mixed >> 4) & 1, (mixed >> 5) & 1))

    # -- reporting ----------------------------------------------------------
    @property
    def storage_bits(self) -> int:
        """Storage footprint in bits."""
        per_entry = self.tag_bits + self.target_bits + 2 + 1
        tagged = self.num_tables * (1 << self.log_entries) * per_entry
        base = (1 << self.log_base_entries) * self.target_bits
        return tagged + base

    @property
    def storage_kb(self) -> float:
        """Storage footprint in kilobytes."""
        return self.storage_bits / 8.0 / 1024.0

    def mispredict_rate(self) -> float:
        """Mispredicts / predictions (0 when unused)."""
        return self.mispredicts / self.predictions if self.predictions else 0.0
