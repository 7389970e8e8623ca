"""Rule registry for ``repro lint``.

Seven rule families guard the properties the reproduction depends on:
determinism (no entropy on stat-affecting paths), layering (the
architecture DAG), hot-path hygiene (``__slots__`` on per-event
records), stats parity (the event-horizon bit-identity invariant),
config coherence (field reads match field definitions), telemetry
imports (hot paths see only the zero-overhead no-op handle), and
concurrency safety (no blocking calls reachable from async code, no
dropped coroutines/tasks, process pools install the child initializer,
and client route strings agree with the ``_route`` dispatchers).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.engine import Rule
from repro.analysis.rules.concurrency import (
    AsyncBlockingCallRule,
    FireAndForgetTaskRule,
    PoolChildInitRule,
    RouteConformanceRule,
    UnawaitedCoroutineRule,
)
from repro.analysis.rules.config_coherence import (
    ConfigUnknownFieldRule,
    ConfigUnusedFieldRule,
)
from repro.analysis.rules.determinism import (
    SetIterationRule,
    UnseededRngRule,
    WallClockRule,
)
from repro.analysis.rules.hotpath import AttrOutsideInitRule, MissingSlotsRule
from repro.analysis.rules.layering import LayeringRule
from repro.analysis.rules.stats_parity import StatsParityRule
from repro.analysis.rules.telemetry_imports import TelemetryNoopImportRule

#: every registered rule, in report order
ALL_RULES: List[Rule] = [
    WallClockRule(),
    UnseededRngRule(),
    SetIterationRule(),
    LayeringRule(),
    MissingSlotsRule(),
    AttrOutsideInitRule(),
    StatsParityRule(),
    ConfigUnknownFieldRule(),
    ConfigUnusedFieldRule(),
    TelemetryNoopImportRule(),
    AsyncBlockingCallRule(),
    UnawaitedCoroutineRule(),
    FireAndForgetTaskRule(),
    PoolChildInitRule(),
    RouteConformanceRule(),
]


def get_rules(names: Optional[Sequence[str]] = None) -> List[Rule]:
    """The registered rules, optionally filtered by exact name.

    Raises ``ValueError`` on an unknown name so typos in ``--select``
    fail loudly instead of silently selecting nothing.
    """
    if names is None:
        return list(ALL_RULES)
    known = {rule.name: rule for rule in ALL_RULES}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(
            f"unknown rule(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    return [known[name] for name in names]


__all__ = [
    "ALL_RULES",
    "get_rules",
    "AsyncBlockingCallRule",
    "AttrOutsideInitRule",
    "ConfigUnknownFieldRule",
    "ConfigUnusedFieldRule",
    "FastcoreAllocRule",
    "FireAndForgetTaskRule",
    "LayeringRule",
    "MissingSlotsRule",
    "PoolChildInitRule",
    "RouteConformanceRule",
    "SetIterationRule",
    "StatsParityRule",
    "TelemetryNoopImportRule",
    "UnawaitedCoroutineRule",
    "WallClockRule",
]
