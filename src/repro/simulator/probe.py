"""Per-cycle machine probes: watch the pipeline breathe.

A probe is any callable attached to ``Machine.probe``; the machine calls
it once per cycle after all stages. :class:`TimelineProbe` samples the
quantities the paper's narrative is about — FTQ occupancy collapsing at
resteers, MSHR pressure, back-end drain — and renders them as terminal
sparklines, which makes the FDIP mechanism *visible*:

>>> machine.probe = probe = TimelineProbe(sample_every=50)
>>> machine.run(50_000, warmup=0)
>>> print(probe.render())

Event-horizon interaction (DESIGN.md §10/§12): probes and telemetry
answer different questions and interact with cycle skipping differently.

* **Probes** observe *every cycle* — attaching one automatically
  disables event-horizon skipping so the observer sees each cycle,
  unless ``machine.probe_coarse = True`` opts into one observation per
  fast-forward jump (coarse sampling; skipping stays on).
* **The telemetry recorder** (``machine.tel``, see
  :mod:`repro.telemetry`) is *horizon-aware by design*: attaching it
  never disables skipping. Emit sites fire only on discrete pipeline
  events (resteers, misses, FEC qualifications, prefetch traffic), none
  of which occur inside a skippable region, and ``_fast_forward`` emits
  one batched ``fast_forward`` event per jump so the trace records
  exactly where — and how far — the simulator skipped. Stats stay
  bit-identical with telemetry attached or not.

Rule of thumb: use a probe to ask "what does cycle-by-cycle occupancy
look like?", telemetry to ask "what happened, in what order, and how do
two runs differ?".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

_SPARKS = " .:-=+*#%@"


def sparkline(values: List[float], width: int = 72,
              vmax: Optional[float] = None) -> str:
    """Render values as a one-line terminal sparkline."""
    if not values:
        return ""
    if len(values) > width:
        # bucket-average down to the display width
        bucket = len(values) / width
        values = [
            sum(values[int(i * bucket):max(int(i * bucket) + 1,
                                           int((i + 1) * bucket))])
            / max(1, len(values[int(i * bucket):max(int(i * bucket) + 1,
                                                    int((i + 1) * bucket))]))
            for i in range(width)
        ]
    top = vmax if vmax is not None else (max(values) or 1.0)
    out = []
    for v in values:
        idx = int(min(1.0, max(0.0, v / top)) * (len(_SPARKS) - 1))
        out.append(_SPARKS[idx])
    return "".join(out)


@dataclass
class TimelineProbe:
    """Samples pipeline occupancies every ``sample_every`` cycles."""

    sample_every: int = 100
    ftq_occupancy: List[float] = field(default_factory=list)
    rob_occupancy: List[float] = field(default_factory=list)
    mshr_inflight: List[float] = field(default_factory=list)
    resteer_marks: List[float] = field(default_factory=list)
    _resteers_seen: int = 0
    _window_resteers: int = 0

    def __call__(self, machine) -> None:
        new_resteers = machine.stats.resteers - self._resteers_seen
        self._resteers_seen = machine.stats.resteers
        self._window_resteers += new_resteers
        if machine.cycle % self.sample_every != 0:
            return
        self.ftq_occupancy.append(machine.ftq.occupancy())
        self.rob_occupancy.append(machine.backend.occupancy)
        self.mshr_inflight.append(
            machine.hierarchy.l1i.mshr_inflight(machine.cycle))
        self.resteer_marks.append(self._window_resteers)
        self._window_resteers = 0

    def render(self, width: int = 72) -> str:
        """Render the result as the paper-style text output."""
        lines = [
            "FTQ occupancy (0..%d):" % 24,
            "  " + sparkline(self.ftq_occupancy, width),
            "L1-I MSHRs in flight:",
            "  " + sparkline(self.mshr_inflight, width),
            "ROB occupancy:",
            "  " + sparkline(self.rob_occupancy, width),
            "resteers per window:",
            "  " + sparkline(self.resteer_marks, width),
        ]
        return "\n".join(lines)
