"""Dashboard state assembly: server internals → one JSON document.

Pure functions over plain dicts — the dashboard unit never imports the
service (the service imports *us*), so these helpers are testable
without a running server and the layering DAG stays acyclic:
``service → dash → telemetry/utils``.

The metrics block reuses the PR-4 :class:`MetricsRegistry` so the
numbers the dashboard shows are the same shapes ``repro trace`` /
telemetry exports use, not a parallel ad-hoc scheme.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.telemetry.registry import MetricsRegistry

__all__ = ["build_state", "service_metrics", "sweep_rows"]


def service_metrics(counters: Dict[str, int],
                    gauges: Dict[str, float]) -> Dict[str, Any]:
    """Server counters/gauges as a telemetry-registry snapshot."""
    registry = MetricsRegistry()
    for name in sorted(counters):
        registry.counter("service.%s" % name).inc(int(counters[name]))
    for name in sorted(gauges):
        registry.gauge("service.%s" % name).set(float(gauges[name]))
    return registry.snapshot()


def sweep_rows(sweeps: Dict[str, Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Dashboard-ordered sweep snapshots: running first, then newest."""
    rows = list(sweeps.values())
    rows.sort(key=lambda row: (row.get("state") == "done"
                               or row.get("state") == "failed",
                               -float(row.get("created") or 0.0)))
    return rows


def build_state(server: Dict[str, Any], counters: Dict[str, int],
                gauges: Dict[str, float],
                sweeps: Dict[str, Dict[str, Any]],
                jobs: List[Dict[str, Any]],
                store: Optional[Dict[str, Any]] = None,
                recent_jobs: int = 20) -> Dict[str, Any]:
    """The ``GET /dash/state`` payload: everything the page renders.

    ``jobs`` is the full summary list; only queued/running plus the
    ``recent_jobs`` most recently finished ride along, so the payload
    stays bounded regardless of server history.
    """
    active = [j for j in jobs if j.get("state") in ("queued", "running")]
    finished = [j for j in jobs
                if j.get("state") not in ("queued", "running")]
    finished.sort(key=lambda j: -float(j.get("finished") or 0.0))
    return {
        "generated": time.time(),
        "server": server,
        "counters": dict(counters),
        "metrics": service_metrics(counters, gauges),
        "sweeps": sweep_rows(sweeps),
        "jobs": {
            "queued": sum(1 for j in active if j["state"] == "queued"),
            "running": sum(1 for j in active if j["state"] == "running"),
            "total": len(jobs),
            "active": active,
            "recent": finished[:recent_jobs],
        },
        "store": store,
    }
