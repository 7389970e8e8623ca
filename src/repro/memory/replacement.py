"""Replacement policies: LRU and EMISSARY.

EMISSARY (Nagendra et al., ISCA '23) adds a priority bit (P-bit) per
line. Lines that caused front-end-critical misses are *promoted* (P-bit
set) with a small probability — the paper and our reproduction use 1/32 —
which keeps single-instance FEC lines from hogging the protected ways.
On eviction, non-priority lines are victimized first; priority lines are
shielded as long as at most ``protected_ways`` of the set hold P-bits.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.utils import derive_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memory.cache import CacheLineState


class ReplacementPolicy:
    """Strategy interface: pick a victim among a set's resident lines."""

    def victim(self, ways: Dict[int, "CacheLineState"]) -> int:
        """Return the tag of the line to evict. ``ways`` is non-empty."""
        raise NotImplementedError

    def on_promote(self, line_state: "CacheLineState",
                   ways: Dict[int, "CacheLineState"]) -> bool:
        """Request FEC promotion of a resident line; returns True if the
        P-bit was set. ``ways`` is the line's set, so policies can cap the
        number of protected ways. Default policies ignore promotions."""
        return False


class LRUPolicy(ReplacementPolicy):
    """Evict the least-recently-used line."""

    def victim(self, ways: Dict[int, "CacheLineState"]) -> int:
        """Pick the tag to evict from a full set."""
        # explicit scan instead of min(..., key=lambda ...): victim
        # selection sits on the cache-fill hot path and the closure call
        # per way is measurable; first-minimum semantics are preserved
        best_tag = -1
        best_lru = None
        for tag, state in ways.items():
            lru = state.lru
            if best_lru is None or lru < best_lru:
                best_lru = lru
                best_tag = tag
        return best_tag


class EmissaryPolicy(ReplacementPolicy):
    """EMISSARY: LRU that shields up to ``protected_ways`` priority lines.

    ``promote_prob`` is applied here (one coin flip per qualifying retire
    event). The paper promotes with probability 1/32, tuned for
    100M-instruction runs; the reproduction's default is 0.25 so the
    protected set converges at ~400x shorter budgets (the EMISSARY
    ablation bench sweeps the knob, including the paper's 1/32).
    """

    PAPER_PROMOTE_PROB = 1 / 32

    def __init__(self, protected_ways: int = 8, promote_prob: float = 0.25,
                 seed: int = 0):
        if protected_ways < 0:
            raise ValueError("protected_ways must be >= 0")
        if not 0.0 <= promote_prob <= 1.0:
            raise ValueError("promote_prob must be a probability")
        self.protected_ways = protected_ways
        self.promote_prob = promote_prob
        self._rng = derive_rng(seed, "emissary")
        self.promotions = 0
        self.promotion_requests = 0

    def victim(self, ways: Dict[int, "CacheLineState"]) -> int:
        """Pick the tag to evict from a full set."""
        # single pass over the non-priority ways (first-minimum, like the
        # former min-with-key over a filtered dict)
        best_tag = None
        best_lru = None
        for tag, state in ways.items():
            if state.p_bit:
                continue
            lru = state.lru
            if best_lru is None or lru < best_lru:
                best_lru = lru
                best_tag = tag
        if best_tag is not None:
            return best_tag
        # every way is priority: fall back to plain LRU
        for tag, state in ways.items():
            lru = state.lru
            if best_lru is None or lru < best_lru:
                best_lru = lru
                best_tag = tag
        return best_tag

    def on_promote(self, line_state: "CacheLineState",
                   ways: Dict[int, "CacheLineState"]) -> bool:
        """Request FEC promotion of a resident line."""
        self.promotion_requests += 1
        if line_state.p_bit:
            return True
        if self._rng.random() >= self.promote_prob:
            return False
        if self.priority_count(ways) >= self.protected_ways:
            return False
        line_state.p_bit = True
        self.promotions += 1
        return True

    def priority_count(self, ways: Dict[int, "CacheLineState"]) -> int:
        """Number of P-bit lines in the set."""
        return sum(1 for s in ways.values() if s.p_bit)
