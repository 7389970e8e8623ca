"""TAGE conditional branch predictor (Seznec & Michaud, JILP 2006).

A bimodal base predictor plus ``num_tables`` partially-tagged tables
indexed with geometrically increasing global-history lengths. Prediction
comes from the longest-history matching table (the *provider*); the next
longest match is the alternate. Allocation on mispredict follows the
standard policy (allocate in one longer-history table with a usefulness
counter of 0), with periodic usefulness aging.

Histories are folded incrementally (:class:`GlobalHistory`, which ITTAGE
shares) so each prediction costs O(num_tables), independent of history
length.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.utils import derive_rng

#: the history bit a resolved conditional pushes, as ``push`` takes it
_NOT_TAKEN = (0,)
_TAKEN = (1,)


class GlobalHistory:
    """Global history and its folded registers, for one TAGE-style table set.

    Holds the geometric history ``lengths`` of ``num_tables`` tagged
    tables, the bounded history ``ghist`` (most recent bit last) and, per
    table, three folded registers: the index fold (``index_bits`` wide)
    and two tag folds (``tag_bits`` and ``tag_bits - 1`` wide). A register
    is a flat mutable row ``[value, h, out_pos, bits, mask]``; the
    predictors bind ``idx_rows``/``tag1_rows``/``tag2_rows`` once and read
    ``row[0]`` in their ``predict`` loops, since list indexing beats
    per-fold attribute traffic there.

    :meth:`push` keeps every register equal to the fold of the last ``h``
    history bits (the bit of age ``a`` at position ``a % bits``) in O(1)
    per bit: the classic CBP update shifts the new bit in, cancels the
    bit leaving the window at its folded position, and wraps the bit that
    overflowed past ``bits`` back to position 0.
    """

    __slots__ = ("lengths", "index_bits", "tag_bits", "ghist", "idx_rows",
                 "tag1_rows", "tag2_rows", "_rows", "_cap", "_keep")

    def __init__(self, num_tables: int, min_history: int, max_history: int,
                 index_bits: int, tag_bits: int):
        self.lengths: List[int] = []
        for i in range(num_tables):
            if num_tables == 1:
                h = min_history
            else:
                ratio = (max_history / min_history) ** (1.0 / (num_tables - 1))
                h = int(round(min_history * (ratio ** i)))
            self.lengths.append(max(1, h))
        self.index_bits = index_bits
        self.tag_bits = tag_bits
        max_h = max(self.lengths)
        self.ghist = [0] * (max_h + 1)

        # a register is a function of (h, bits) and the history alone, so
        # registers of equal (h, bits) share one row (with the default
        # geometry each table's index and second tag fold coincide)
        folds: Dict[Tuple[int, int], List[int]] = {}

        def _fold_row(h: int, bits: int) -> List[int]:
            return folds.setdefault((h, bits),
                                    [0, h, h % bits, bits, (1 << bits) - 1])

        self.idx_rows = [_fold_row(h, index_bits) for h in self.lengths]
        self.tag1_rows = [_fold_row(h, tag_bits) for h in self.lengths]
        self.tag2_rows = [_fold_row(h, tag_bits - 1) for h in self.lengths]
        self._rows = list(folds.values())
        # a fold reads at most max_h + 1 bits back, so the buffer is
        # trimmed to that whenever it outgrows four windows
        self._cap = 4 * max_h
        self._keep = max_h + 1

    def index(self, pc: int, table: int) -> int:
        """Row index of ``pc`` in tagged table ``table``."""
        index_bits = self.index_bits
        return ((pc ^ (pc >> index_bits) ^ self.idx_rows[table][0])
                & ((1 << index_bits) - 1))

    def tag(self, pc: int, table: int) -> int:
        """Partial tag of ``pc`` in tagged table ``table``."""
        return ((pc ^ self.tag1_rows[table][0]
                 ^ (self.tag2_rows[table][0] << 1))
                & ((1 << self.tag_bits) - 1))

    def push(self, bits: Iterable[int]) -> None:
        """Append ``bits`` (oldest first) and advance every register."""
        ghist = self.ghist
        rows = self._rows
        for bit in bits:
            ghist.append(bit)
            gend = len(ghist) - 1
            for row in rows:
                value, h, out_pos, width, mask = row
                value = ((value << 1) | bit) ^ (ghist[gend - h] << out_pos)
                value ^= value >> width
                row[0] = value & mask
        if len(ghist) > self._cap:
            del ghist[: len(ghist) - self._keep]


class _TaggedEntry:
    __slots__ = ("tag", "ctr", "useful")

    def __init__(self) -> None:
        self.tag = 0
        self.ctr = 0      # signed 3-bit counter in [-4, 3]; >= 0 means taken
        self.useful = 0   # 2-bit usefulness


class TAGEPredictor:
    """TAGE with a bimodal base and geometric tagged tables."""

    def __init__(self, num_tables: int = 8, log_entries: int = 10,
                 min_history: int = 4, max_history: int = 160,
                 tag_bits: int = 11, log_base_entries: int = 13,
                 seed: int = 0):
        self.num_tables = num_tables
        self.log_entries = log_entries
        self.tag_bits = tag_bits
        self.log_base_entries = log_base_entries
        self._rng = derive_rng(seed, "tage")

        self._base = [0] * (1 << log_base_entries)  # 2-bit counters in [-2,1]
        self._tables: List[List[Optional[_TaggedEntry]]] = [
            [None] * (1 << log_entries) for _ in range(num_tables)
        ]
        self.history = GlobalHistory(num_tables, min_history, max_history,
                                     log_entries, tag_bits)
        # bound once: predict() reads these per conditional
        self._idx_rows = self.history.idx_rows
        self._tag1_rows = self.history.tag1_rows
        self._tag2_rows = self.history.tag2_rows
        self._push = self.history.push

        self._tick = 0  # usefulness aging clock
        self.predictions = 0
        self.mispredicts = 0

        # per-prediction scratch (filled by predict, consumed by update)
        self._provider: Optional[int] = None
        self._provider_idx = 0
        self._alt_pred = False
        self._provider_pred = False
        self._base_idx = 0

    # -- prediction -----------------------------------------------------------
    def predict(self, pc: int) -> bool:
        """Predict the direction of the conditional branch at ``pc``."""
        self.predictions += 1
        self._base_idx = (pc >> 2) & ((1 << self.log_base_entries) - 1)
        base_pred = self._base[self._base_idx] >= 0

        # GlobalHistory.index/tag, hoisted (this loop runs per conditional)
        log_entries = self.log_entries
        idx_mask = (1 << log_entries) - 1
        tag_mask = (1 << self.tag_bits) - 1
        pc_idx = pc ^ (pc >> log_entries)
        tables = self._tables
        idx_rows = self._idx_rows
        tag1_rows = self._tag1_rows
        tag2_rows = self._tag2_rows

        provider = None
        provider_idx = 0
        alt = base_pred
        provider_pred = base_pred
        for t in range(self.num_tables - 1, -1, -1):
            idx = (pc_idx ^ idx_rows[t][0]) & idx_mask
            entry = tables[t][idx]
            if entry is not None and entry.tag == (
                    pc ^ tag1_rows[t][0]
                    ^ (tag2_rows[t][0] << 1)) & tag_mask:
                if provider is None:
                    provider = t
                    provider_idx = idx
                    provider_pred = entry.ctr >= 0
                else:
                    alt = entry.ctr >= 0
                    break
        self._provider = provider
        self._provider_idx = provider_idx
        self._alt_pred = alt if provider is not None else base_pred
        self._provider_pred = provider_pred
        return provider_pred if provider is not None else base_pred

    # -- update ---------------------------------------------------------------
    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        """Train on the resolved outcome; must follow the matching predict()."""
        if predicted != taken:
            self.mispredicts += 1
        provider = self._provider
        # provider ctr saturates in [-4, 3], base counter in [-2, 1]
        if provider is not None:
            entry = self._tables[provider][self._provider_idx]
            if entry is not None:
                ctr = entry.ctr
                if taken:
                    entry.ctr = ctr + 1 if ctr < 3 else 3
                else:
                    entry.ctr = ctr - 1 if ctr > -4 else -4
                if self._provider_pred != self._alt_pred:
                    if self._provider_pred == taken:
                        entry.useful = min(entry.useful + 1, 3)
                    else:
                        entry.useful = max(entry.useful - 1, 0)
        else:
            ctr = self._base[self._base_idx]
            if taken:
                self._base[self._base_idx] = ctr + 1 if ctr < 1 else 1
            else:
                self._base[self._base_idx] = ctr - 1 if ctr > -2 else -2

        # allocation on mispredict in a longer-history table
        if predicted != taken:
            history = self.history
            start = (provider + 1) if provider is not None else 0
            candidates = []
            for t in range(start, self.num_tables):
                idx = history.index(pc, t)
                entry = self._tables[t][idx]
                if entry is None or entry.useful == 0:
                    candidates.append(t)
            if candidates:
                # prefer shorter histories with probability bias (classic TAGE)
                t = candidates[0]
                if len(candidates) > 1 and self._rng.random() < 0.33:
                    t = candidates[1]
                idx = history.index(pc, t)
                entry = self._tables[t][idx]
                if entry is None:
                    entry = _TaggedEntry()
                    self._tables[t][idx] = entry
                entry.tag = history.tag(pc, t)
                entry.ctr = 0 if taken else -1
                entry.useful = 0
            else:
                for t in range(start, self.num_tables):
                    idx = history.index(pc, t)
                    entry = self._tables[t][idx]
                    if entry is not None:
                        entry.useful = max(entry.useful - 1, 0)

        # periodic usefulness aging
        self._tick += 1
        if self._tick >= (1 << 18):
            self._tick = 0
            for table in self._tables:
                for entry in table:
                    if entry is not None:
                        entry.useful >>= 1

        self._push(_TAKEN if taken else _NOT_TAKEN)

    # -- reporting ----------------------------------------------------------
    @property
    def storage_bits(self) -> int:
        """Storage footprint in bits."""
        per_entry = 3 + 2 + self.tag_bits  # ctr + useful + tag
        tagged = self.num_tables * (1 << self.log_entries) * per_entry
        base = (1 << self.log_base_entries) * 2
        return tagged + base

    @property
    def storage_kb(self) -> float:
        """Storage footprint in kilobytes."""
        return self.storage_bits / 8.0 / 1024.0

    def mispredict_rate(self) -> float:
        """Mispredicts / predictions (0 when unused)."""
        return self.mispredicts / self.predictions if self.predictions else 0.0

