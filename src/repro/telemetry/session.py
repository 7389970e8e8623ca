"""Telemetry sessions: wire a recorder + registry onto a machine.

A :class:`TelemetrySession` owns one
:class:`~repro.telemetry.recorder.TraceRecorder` and one
:class:`~repro.telemetry.registry.MetricsRegistry`.
:meth:`~TelemetrySession.attach` swaps the machine's (and its
components') ``tel`` null handles for the live recorder;
:meth:`~TelemetrySession.detach` restores the null handles and harvests
component counters — FTQ, prefetch queue, cache hierarchy, machine
fast-path diagnostics, and the prefetcher's own accounting — into the
registry under stable dotted names.

Event-horizon interaction (see :mod:`repro.simulator.probe` for the
probe-side rule): attaching telemetry does **not** disable cycle
skipping. The recorder is horizon-aware — ``Machine._fast_forward``
emits one batched ``fast_forward`` event per jump — so a telemetry run
takes the same fast path, produces bit-identical stats, and its trace
marks exactly where the simulator skipped.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.telemetry.handle import NULL_RECORDER
from repro.telemetry.recorder import DEFAULT_CAPACITY, TraceRecorder
from repro.telemetry.registry import MetricsRegistry

#: (metric name, attribute path from the machine) harvested at detach;
#: missing attributes are skipped, so leaner machines harvest less
HARVEST_SOURCES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("ftq.enqueues", ("ftq", "enqueues")),
    ("ftq.flushes", ("ftq", "flushes")),
    ("ftq.flushed_entries", ("ftq", "flushed_entries")),
    ("pq.requests", ("pq", "requests")),
    ("pq.issued", ("pq", "issued")),
    ("pq.dropped_full", ("pq", "dropped_full")),
    ("pq.filtered_resident", ("pq", "filtered_resident")),
    ("l1i.demand_accesses", ("hierarchy", "l1i_demand_accesses")),
    ("l1i.demand_misses", ("hierarchy", "l1i_demand_misses")),
    ("l2.inst_misses", ("hierarchy", "l2_inst_misses")),
    ("l2.data_misses", ("hierarchy", "l2_data_misses")),
    ("l3.misses", ("hierarchy", "l3_misses")),
    ("prefetch.issued", ("hierarchy", "prefetches_issued")),
    ("prefetch.dropped", ("hierarchy", "prefetches_dropped")),
    ("prefetch.useful", ("hierarchy", "prefetch_useful")),
    ("prefetch.late", ("hierarchy", "prefetch_late")),
    ("prefetch.useless", ("hierarchy", "prefetch_useless")),
    ("pdip.candidate_events", ("prefetcher", "candidate_events")),
    ("pdip.qualified_events", ("prefetcher", "qualified_events")),
    ("pdip.inserted_events", ("prefetcher", "inserted_events")),
    ("pdip.prefetch_requests", ("prefetcher", "prefetch_requests")),
    ("sim.fast_forwards", ("fast_forwards",)),
    ("sim.fast_forwarded_cycles", ("fast_forwarded_cycles",)),
    ("sim.cycles", ("cycle",)),
)

#: machine attributes whose ``tel`` handle the session swaps
_TEL_BEARERS: Tuple[Tuple[str, ...], ...] = (
    (), ("hierarchy",), ("pq",), ("prefetcher",),
)


def _resolve(machine, path: Tuple[str, ...]):
    obj = machine
    for attr in path:
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    return obj


class TelemetrySession:
    """One machine-run's worth of telemetry state."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 sample_every: int = 1,
                 recorder: Optional[TraceRecorder] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.recorder = (recorder if recorder is not None
                         else TraceRecorder(capacity=capacity,
                                            sample_every=sample_every))
        self.registry = registry if registry is not None else MetricsRegistry()
        self._attached: List[object] = []

    @classmethod
    def from_env(cls, capacity: Optional[int] = None,
                 sample_every: Optional[int] = None) -> "TelemetrySession":
        """Build a session from ``REPRO_TELEMETRY_CAPACITY`` /
        ``REPRO_TELEMETRY_SAMPLE`` (defaults: 65536 / 1); an explicit
        ``capacity`` or ``sample_every`` wins over its variable."""
        if capacity is None:
            capacity = int(os.environ.get("REPRO_TELEMETRY_CAPACITY",
                                          str(DEFAULT_CAPACITY)))
        if sample_every is None:
            sample_every = int(os.environ.get("REPRO_TELEMETRY_SAMPLE", "1"))
        return cls(capacity=capacity, sample_every=sample_every)

    # ------------------------------------------------------------------
    def attach(self, machine) -> "TelemetrySession":
        """Swap the machine's (and components') null handles for the
        live recorder. Idempotent per machine; returns self."""
        for path in _TEL_BEARERS:
            bearer = _resolve(machine, path)
            if bearer is not None and hasattr(bearer, "tel"):
                bearer.tel = self.recorder
                if bearer not in self._attached:
                    self._attached.append(bearer)
        return self

    def detach(self, machine) -> "TelemetrySession":
        """Restore the null handles and harvest component counters."""
        self.harvest(machine)
        for bearer in self._attached:
            bearer.tel = NULL_RECORDER
        self._attached = []
        return self

    # ------------------------------------------------------------------
    def harvest(self, machine) -> None:
        """Pull component counters into the registry as gauges."""
        registry = self.registry
        for name, path in HARVEST_SOURCES:
            value = _resolve(machine, path)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                registry.gauge(name).set(value)
        for kind, count in self.recorder.kind_counts.items():
            counter = registry.counter("events." + kind)
            counter.value = count

    def summary(self) -> Dict[str, object]:
        """Ring accounting plus the metric snapshot (JSON-ready)."""
        return {
            "recorder": self.recorder.summary(),
            "metrics": self.registry.snapshot(),
        }
