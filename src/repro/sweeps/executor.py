"""Incremental sweep executor: resolve warm cells, run only the dirty.

Given a compiled :class:`~repro.sweeps.plan.SweepPlan`, the executor
resolves every cell in two steps:

1. **store** — each cell is looked up once in the
   :class:`~repro.simulator.cache.ResultStore`; a lookup only reads,
   so a warm re-run writes nothing to the store.
2. **execute** — the misses are the *dirty set*. They run either
   on a local process pool (the suite runner's own
   :func:`~repro.simulator.runner.execute_cells`, so pool/retry
   semantics — and therefore stats — are identical to
   ``run_suite_parallel``) or against a running ``repro serve`` via
   :class:`ServiceClient`, with at most ``max_in_flight``
   submissions outstanding. A local cell whose store write fails
   (``OSError`` or ``sqlite3.Error``, e.g. a full disk) is recorded as
   failed, as the server fails such a job, and the rest go on.

Progress is durable: after every wave the executor rewrites the plan's
*state file* (atomic temp+rename, keyed by the plan digest) recording
per-cell outcomes, so an interrupted sweep resumes cheaply — completed
cells resolve warm from the store and the state file carries the
history for ``repro sweep status``. When a client is attached, the
sweep also registers itself with the server's dashboard and posts
aggregated per-(benchmark × policy) progress, so a million-cell sweep
ships O(grid) — not O(cells) — bytes per update.

The final :class:`SweepReport` is the JSON artifact figure cells
consume: per-cell source/stats plus aggregate counts.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import config_from_payload
from repro.simulator.manifest import config_hash
from repro.simulator.policies import get_policy
from repro.simulator.runner import DEFAULT_RETRIES, execute_cells, resolve_jobs
from repro.simulator.stats import SimulationStats
from repro.sweeps.plan import PlanCell, SweepPlan

__all__ = ["SweepReport", "run_sweep", "sweep_state_path", "load_state"]

#: Ceiling on submissions outstanding against a service at once.
DEFAULT_MAX_IN_FLIGHT = 16
#: A service round that settles nothing long-polls the oldest in-flight
#: job for at most this long (seconds), so a later job that ends first
#: is still seen, and its slot refilled, within this bound.
_SETTLE_WAIT_S = 0.2
#: Dashboard progress updates are throttled to this period (seconds).
_DASH_PERIOD_S = 1.0
_STATE_SCHEMA = 1
_REPORT_SCHEMA = 1


class SweepReport:
    """Outcome of one executor run over a plan (JSON-serializable)."""

    def __init__(self, plan: SweepPlan) -> None:
        self.name = plan.name
        self.plan_digest = plan.digest
        self.total = len(plan.cells)
        self._cells = plan.cells
        #: key -> (cell, source, stats | None, error, wall_time)
        self.outcomes: Dict[str, Tuple[PlanCell, str, Optional[SimulationStats],
                                       str, float]] = {}

    def record(self, cell: PlanCell, source: str,
               stats: Optional[SimulationStats], error: str = "",
               wall_time: float = 0.0) -> None:
        self.outcomes[cell.key] = (cell, source, stats, error, wall_time)

    @property
    def counts(self) -> Dict[str, int]:
        tally = {"total": self.total, "store": 0, "executed": 0,
                 "failed": 0}
        for _, source, _, _, _ in self.outcomes.values():
            tally[source] = tally.get(source, 0) + 1
        return tally

    @property
    def failed(self) -> Dict[str, str]:
        """key -> error for every failed cell."""
        return {key: err for key, (_, src, _, err, _) in self.outcomes.items()
                if src == "failed"}

    def results(self, config_label: Optional[str] = None,
                seed: Optional[int] = None
                ) -> Dict[str, Dict[str, SimulationStats]]:
        """``{benchmark: {policy: stats}}`` — the figure-cell shape.

        In plan order, however the cells resolved. Optional filters
        select one config variant / seed when the sweep has those axes;
        without them later cells win the (bench, policy) slot.
        """
        out: Dict[str, Dict[str, SimulationStats]] = {}
        for cell in self._cells:
            outcome = self.outcomes.get(cell.key)
            stats = outcome[2] if outcome is not None else None
            if stats is None:
                continue
            if config_label is not None and cell.config_label != config_label:
                continue
            if seed is not None and cell.seed != seed:
                continue
            out.setdefault(cell.benchmark, {})[cell.policy] = stats
        return out

    def to_dict(self, include_stats: bool = True) -> Dict[str, Any]:
        rows = []
        for cell, source, stats, error, wall in self.outcomes.values():
            row = cell.payload()
            row.update(key=cell.key, source=source, error=error,
                       wall_time=round(wall, 6))
            if include_stats:
                row["stats"] = stats.to_dict() if stats is not None else None
            rows.append(row)
        return {"schema": _REPORT_SCHEMA, "name": self.name,
                "plan_digest": self.plan_digest, "counts": self.counts,
                "cells": rows}

    def write(self, path: "str | Path", include_stats: bool = True) -> None:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_suffix(target.suffix + ".%d.tmp" % os.getpid())
        tmp.write_text(json.dumps(self.to_dict(include_stats=include_stats),
                                  indent=2, sort_keys=True))
        tmp.replace(target)


# ----------------------------------------------------------------------
# resumable state
# ----------------------------------------------------------------------
def sweep_state_path(plan: SweepPlan) -> Path:
    """Default state location: content-addressed under the cache dir.

    Keying the file name by the plan digest makes resume automatic for
    an unchanged spec and inert for an edited one — a changed plan gets
    a fresh state file instead of inheriting stale cell history.
    """
    from repro.simulator import cache as result_cache

    root = result_cache.cache_dir() / "sweeps"
    return root / ("%s.state.json" % plan.digest)


def load_state(path: "str | Path", plan: SweepPlan) -> Dict[str, Any]:
    """Read a state file; empty state on absence/corruption/plan drift."""
    empty = {"schema": _STATE_SCHEMA, "name": plan.name,
             "plan_digest": plan.digest, "done": {}, "failed": {}}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return empty
    if (not isinstance(data, dict)
            or data.get("plan_digest") != plan.digest
            or data.get("schema") != _STATE_SCHEMA):
        return empty
    data.setdefault("done", {})
    data.setdefault("failed", {})
    return data


def _write_state(path: "str | Path", state: Dict[str, Any]) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    state = dict(state, updated=time.time())
    tmp = target.with_suffix(target.suffix + ".%d.tmp" % os.getpid())
    tmp.write_text(json.dumps(state, sort_keys=True))
    tmp.replace(target)


# ----------------------------------------------------------------------
# dashboard feed
# ----------------------------------------------------------------------
class _DashFeed:
    """Best-effort progress mirror on the server's dashboard registry.

    Registration and updates never fail the sweep: a server predating
    the dashboard routes (or a dropped connection) degrades to silence.
    """

    def __init__(self, client: Optional[ServiceClient],
                 plan: SweepPlan) -> None:
        self.client = client
        self.plan = plan
        self.sweep_id: Optional[str] = None
        self._last = 0.0
        self._slot_totals: Dict[str, int] = {}
        for cell in plan.cells:
            slot = "%s|%s" % (cell.benchmark, cell.policy)
            self._slot_totals[slot] = self._slot_totals.get(slot, 0) + 1
        if client is None:
            return
        try:
            self.sweep_id = client.register_sweep(
                name=plan.name, plan_digest=plan.digest,
                total=len(plan.cells), benchmarks=list(plan.benchmarks),
                policies=list(plan.policies))["id"]
        except (ServiceError, OSError):
            self.sweep_id = None

    def push(self, report: SweepReport, state: str = "running",
             force: bool = False) -> None:
        if self.client is None or self.sweep_id is None:
            return
        now = time.monotonic()
        if not force and now - self._last < _DASH_PERIOD_S:
            return
        self._last = now
        grid = {slot: {"done": 0, "failed": 0, "total": total}
                for slot, total in self._slot_totals.items()}
        for cell, source, _, _, _ in report.outcomes.values():
            slot = grid["%s|%s" % (cell.benchmark, cell.policy)]
            if source == "failed":
                slot["failed"] += 1
            else:
                slot["done"] += 1
        try:
            self.client.sweep_progress(self.sweep_id, counts=report.counts,
                                       grid=grid, state=state)
        except (ServiceError, OSError):
            pass


# ----------------------------------------------------------------------
# execution backends
# ----------------------------------------------------------------------
def _run_local(dirty: List[PlanCell], report: SweepReport, store,
               jobs: Optional[int], retries: int,
               feed: _DashFeed, checkpoint: Callable[[], None],
               verbose: bool) -> None:
    """Execute dirty cells on this machine's process pool, in waves."""
    jobs = resolve_jobs(jobs, default=os.cpu_count() or 1)
    wave_size = max(4 * jobs, 8)
    for start in range(0, len(dirty), wave_size):
        wave = dirty[start:start + wave_size]
        pending = {cell.key: (cell.benchmark, get_policy(cell.policy),
                              cell.instructions, cell.warmup,
                              config_from_payload(cell.config), cell.seed)
                   for cell in wave}
        computed, attempts, errors = execute_cells(pending, jobs, retries)
        for cell in wave:
            if cell.key in computed:
                stats, wall, worker, telemetry = computed[cell.key]
                try:
                    store.put(cell.key, stats, meta={
                        "benchmark": cell.benchmark, "policy": cell.policy,
                        "seed": cell.seed, "instructions": cell.instructions,
                        "warmup": cell.warmup,
                        "config_hash": config_hash(
                            config_from_payload(cell.config)),
                        "wall_time": wall, "worker": worker,
                        "attempts": attempts[cell.key],
                        "label": "sweep:%s" % report.name,
                    }, telemetry=telemetry)
                except (OSError, sqlite3.Error) as exc:
                    report.record(cell, "failed", None,
                                  error="store write failed: %r" % (exc,))
                else:
                    report.record(cell, "executed", stats, wall_time=wall)
            else:
                report.record(cell, "failed", None,
                              error=errors.get(cell.key, "unknown"))
            if verbose:
                _, source, _, error, _ = report.outcomes[cell.key]
                suffix = ": %s" % error if error else ""
                print("  %-40s %s%s" % (cell.describe(), source, suffix))
        checkpoint()
        feed.push(report)


def _run_service(dirty: List[PlanCell], report: SweepReport,
                 client: ServiceClient, max_in_flight: int,
                 feed: _DashFeed, checkpoint: Callable[[], None],
                 verbose: bool) -> None:
    """Submit dirty cells to a running server, bounded in-flight."""
    queue = list(dirty)
    in_flight: Dict[str, PlanCell] = {}  # job id -> cell
    polled: Dict[str, Dict[str, object]] = {}  # job id -> fresh summary
    while queue or in_flight:
        while queue and len(in_flight) < max_in_flight:
            cell = queue.pop(0)
            try:
                job = client.submit(
                    cell.benchmark, cell.policy,
                    instructions=cell.instructions, warmup=cell.warmup,
                    seed=cell.seed, config=cell.config,
                    backpressure_retries=8)
            except ServiceError as exc:
                report.record(cell, "failed", None,
                              error="submit rejected: %s" % exc)
                continue
            in_flight[str(job["id"])] = cell
        settled = []
        for job_id, cell in in_flight.items():
            job = polled.pop(job_id, None) or client.status(job_id)
            state = job["state"]
            if state == "done":
                result = client.result(job_id)
                stats = SimulationStats.from_dict(result["stats"])
                source = ("store" if result.get("source") == "store"
                          else "executed")
                report.record(cell, source, stats,
                              wall_time=float(job.get("wall_time") or 0.0))
            elif state in ("failed", "cancelled"):
                report.record(cell, "failed", None,
                              error=str(job.get("error") or state))
            else:
                continue
            if verbose:
                _, source, _, error, _ = report.outcomes[cell.key]
                suffix = ": %s" % error if error else ""
                print("  %-40s %s%s" % (cell.describe(), source, suffix))
            settled.append(job_id)
        if settled:
            for job_id in settled:
                del in_flight[job_id]
            checkpoint()
            feed.push(report)
        elif in_flight:
            # nothing settled: long-poll the oldest job, whose end is
            # then seen at once; the next round reuses its summary
            oldest = next(iter(in_flight))
            polled[oldest] = client.status(
                oldest, wait=min(client.wait_window, _SETTLE_WAIT_S))


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_sweep(plan: SweepPlan, store=None,
              client: Optional[ServiceClient] = None,
              jobs: Optional[int] = None, retries: int = DEFAULT_RETRIES,
              max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
              state_path: "str | Path | None" = None,
              report_path: "str | Path | None" = None,
              include_stats: bool = True,
              verbose: bool = False) -> SweepReport:
    """Resolve a plan incrementally and execute only the dirty cells.

    ``client`` selects the backend: with one, misses are submitted to
    the running server (``max_in_flight`` outstanding at once) and
    the sweep appears on its dashboard; without, they run on a local
    process pool of ``jobs`` workers and are written to ``store``.
    ``store`` (None: the default store, see
    :func:`~repro.simulator.cache.open_store`) is consulted before
    anything else, so warm cells cost one index lookup and re-running an
    unchanged spec against a warm store performs **zero simulations**.

    ``state_path=None`` selects the content-addressed default under the
    cache dir (:func:`sweep_state_path`); pass ``state_path=""`` to
    disable state entirely. ``report_path`` additionally writes the JSON
    report after the final cell.
    """
    from repro.simulator import cache as result_cache

    if store is None:
        store = result_cache.open_store()
    report = SweepReport(plan)
    state_file: Optional[Path] = None
    if state_path is None:
        state_file = sweep_state_path(plan)
    elif str(state_path):
        state_file = Path(state_path)
    state = load_state(state_file, plan) if state_file is not None else None

    def checkpoint() -> None:
        if state is None:  # no state file
            return
        for key, (_, source, _, error, _) in report.outcomes.items():
            if source == "failed":
                state["failed"][key] = error
                state["done"].pop(key, None)
            else:
                state["done"][key] = source
                state["failed"].pop(key, None)
        _write_state(state_file, state)

    feed = _DashFeed(client, plan)
    dirty: List[PlanCell] = []
    for cell in plan.cells:
        stats = store.get(cell.key)
        if stats is not None:
            report.record(cell, "store", stats)
        else:
            dirty.append(cell)
    if verbose:
        print("sweep %s: %d cells, %d warm (store), %d dirty"
              % (plan.name, len(plan.cells), len(plan.cells) - len(dirty),
                 len(dirty)))
    checkpoint()
    feed.push(report, force=True)

    if dirty:
        if client is not None:
            _run_service(dirty, report, client, max_in_flight, feed,
                         checkpoint, verbose)
        else:
            _run_local(dirty, report, store, jobs, retries, feed,
                       checkpoint, verbose)
        checkpoint()
    feed.push(report, state="failed" if report.failed else "done", force=True)
    if report_path:
        report.write(report_path, include_stats=include_stats)
    return report
