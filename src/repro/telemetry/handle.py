"""The zero-overhead telemetry handle (the only telemetry module hot
paths may import).

Simulation components (the machine, the memory hierarchy, the prefetch
queue, the PDIP controller) hold a ``tel`` attribute initialized to
:data:`NULL_RECORDER`. Every emit site is guarded by the handle's
``enabled`` class attribute::

    tel = self.tel
    if tel.enabled:
        tel.emit("resteer", cycle, kind=pr.kind.name)

With telemetry off (the default), ``enabled`` is the class-level
constant ``False``, so the guard costs two attribute loads and a branch
— nothing allocates, nothing is recorded, and the perf gate
(DESIGN.md §10) stays green. With telemetry on, a
:class:`repro.telemetry.recorder.TraceRecorder` (whose ``enabled`` is
``True``) replaces the null handle via
:meth:`repro.telemetry.session.TelemetrySession.attach`.

This module must stay dependency-free (stdlib only): the
``telemetry-noop-import`` lint rule pins hot-path modules to importing
*only* ``repro.telemetry.handle`` from the telemetry package, so the
full recorder/registry machinery can never leak onto per-cycle paths.
"""

from __future__ import annotations

import os


def telemetry_enabled() -> bool:
    """True when the ``REPRO_TELEMETRY`` environment switch is on.

    The cell worker (``runner.simulate_cell``) consults this to decide
    whether to attach sessions; the simulator itself never reads it —
    attachment is always explicit.
    """
    return os.environ.get("REPRO_TELEMETRY", "").strip() not in ("", "0")


class NullRecorder:
    """Do-nothing stand-in for a trace recorder.

    ``enabled`` is a class attribute so the hot-path guard reads a
    constant; :meth:`emit` exists only for callers that skip the guard
    (cold paths where the branch is not worth the line of code).
    """

    __slots__ = ()

    enabled = False

    def emit(self, kind: str, cycle: int, **args: object) -> None:
        """Discard the event."""


#: the shared no-op handle every component starts with
NULL_RECORDER = NullRecorder()
