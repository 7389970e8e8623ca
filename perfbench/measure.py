"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import resource
import statistics
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-quantile (0 < q < 1), or None when fewer than ten samples
    lie beyond it: a tail that rests on a handful of samples is noise.

    The median is always reported when there is at least one sample.
    """
    data = sorted(values)
    if not data:
        return None
    if q != 0.5 and len(data) * (1.0 - q) < 10:
        return None
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for
    descendant (pool children, the server subprocess), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class HostSpeed:
    """Samples the host's CPU speed on a background thread.

    The cores of a shared virtual machine run faster or slower from
    second to second as other tenants load the host; two runs of the same
    code can differ by a third. Every :attr:`INTERVAL` seconds the thread
    times a fixed pure-Python loop of :attr:`SLICE` iterations (about
    2 ms), so the samples follow the speed of the host through the very
    interval a workload is measured in. :meth:`factor` is the median
    speed over an interval relative to :attr:`REFERENCE`; a host time
    multiplied by it (a rate divided by it) is what the host would have
    measured at reference speed. Its cost, about 2% of one core, is the
    same in every run.
    """

    INTERVAL = 0.1
    SLICE = 20_000
    #: loop iterations per second that count as factor 1.0
    REFERENCE = 1.0e7

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    @classmethod
    def probe(cls) -> Tuple[float, float]:
        """Time one slice of the loop: ``(end time, iterations per s)``."""
        start = time.perf_counter()
        acc = 0
        for i in range(cls.SLICE):
            acc += i * i % 7
        end = time.perf_counter()
        return end, cls.SLICE / (end - start)

    def _sample(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            self.samples.append(self.probe())

    def factor(self, start: float, end: float) -> float:
        """Median host speed between two ``perf_counter`` readings,
        relative to :attr:`REFERENCE` (1.0 when no sample fell inside)."""
        rates = [rate for t, rate in self.samples if start <= t <= end]
        return median(rates) / self.REFERENCE if rates else 1.0


class Tally:
    """Attempted/failed operation counts plus the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return ok

    def fail(self, reason: str) -> None:
        self.check(False, reason)


def describe(name: str, values: List[float], unit: str, scale: float = 1.0
             ) -> str:
    """One human-readable line: median and p90 (when reportable) with n."""
    p50 = percentile(values, 0.5)
    p90 = percentile(values, 0.9)
    if p50 is None:
        return "  %-28s no samples" % name
    text = "  %-28s p50 %.4g %s" % (name, p50 * scale, unit)
    if p90 is not None:
        text += ", p90 %.4g %s" % (p90 * scale, unit)
    return text + " (n=%d)" % len(values)
