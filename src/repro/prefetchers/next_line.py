"""Next-line instruction prefetcher (FNL-flavoured).

The simplest hardware instruction prefetcher and one of the baselines
the paper's related work discusses (Seznec's FNL+MMA, Section 8.1): on
every fetched line, prefetch the next ``degree`` sequential lines, gated
by a small "worth" table — a per-line saturating counter trained on
whether the next line was actually used soon after (FNL's *footprint*
idea, simplified). Included as a related-work comparison point; it is
*not* one of the paper's evaluated policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.frontend.ftq import FTQEntry
from repro.frontend.prefetch_queue import PrefetchQueue
from repro.prefetchers.base import Prefetcher


@dataclass
class NextLineConfig:
    """Next-line prefetcher knobs."""

    degree: int = 2              # sequential lines prefetched per trigger
    worth_entries: int = 4096    # direct-mapped worth table
    worth_threshold: int = 0     # counter >= threshold => prefetch
    train: bool = True           # learn worth from observed sequentiality


class NextLinePrefetcher(Prefetcher):
    """Sequential next-N-lines prefetcher with a worth filter."""

    name = "next_line"

    def __init__(self, pq: PrefetchQueue,
                 config: Optional[NextLineConfig] = None):
        self.pq = pq
        self.config = config if config is not None else NextLineConfig()
        #: worth counter per line hash, in [-2, 3]
        self._worth: Dict[int, int] = {}
        self._last_line: Optional[int] = None
        self.prefetch_requests = 0

    def on_ftq_enqueue(self, entry: FTQEntry, cycle: int) -> None:
        """A new fetch target entered the FTQ."""
        cfg = self.config
        train = cfg.train
        worth_entries = cfg.worth_entries
        threshold = cfg.worth_threshold
        degree = cfg.degree
        worth = self._worth
        worth_get = worth.get
        request = self.pq.request
        last = self._last_line
        for line in entry.lines:
            if train and last is not None:
                idx = last % worth_entries  # direct-mapped worth slot
                ctr = worth_get(idx, 0)
                if line == last + 1:
                    worth[idx] = ctr + 1 if ctr < 3 else 3
                else:
                    worth[idx] = ctr - 1 if ctr > -2 else -2
            last = line
            if worth_get(line % worth_entries, 0) >= threshold:
                for delta in range(1, degree + 1):
                    self.prefetch_requests += 1
                    request(line + delta, cycle)
        self._last_line = last

    @property
    def storage_kb(self) -> float:
        """Storage footprint in kilobytes (3-bit worth counters)."""
        return self.config.worth_entries * 3 / 8.0 / 1024.0
