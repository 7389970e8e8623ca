"""Shared plumbing for the per-figure experiment drivers."""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.simulator.config import config_from_payload, config_hash
from repro.simulator.manifest import CellRecord, RunManifest
from repro.simulator.runner import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    resolve_jobs,
)
from repro.simulator.stats import SimulationStats
from repro.sweeps import executor, plan
from repro.sweeps.spec import DEFAULT_CONFIG, ConfigVariant, SweepSpec
from repro.utils import geomean
from repro.workloads.profiles import BENCHMARK_NAMES

#: subset used by the heavy BTB-sweep figures when the caller does not
#: ask for the full suite (override with REPRO_BENCHMARKS=all)
SWEEP_BENCHMARKS = (
    "cassandra", "tomcat", "kafka", "tpcc", "verilator",
)


def budget(instructions: Optional[int] = None,
           warmup: Optional[int] = None,
           default: Tuple[int, int] = (DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP),
           ) -> Tuple[int, int]:
    """Resolve the instruction budget: explicit args > env > ``default``."""
    if instructions is None:
        instructions = int(os.environ.get("REPRO_INSTRUCTIONS", default[0]))
    if warmup is None:
        warmup = int(os.environ.get("REPRO_WARMUP", default[1]))
    return instructions, warmup


def suite(benchmarks: Optional[Iterable[str]] = None,
          default: Sequence[str] = BENCHMARK_NAMES) -> List[str]:
    """Resolve the benchmark list: explicit args > env > ``default``."""
    if benchmarks is not None:
        return list(benchmarks)
    env = os.environ.get("REPRO_BENCHMARKS", "")
    if env.strip().lower() == "all":
        return list(BENCHMARK_NAMES)
    if env.strip():
        return [b.strip() for b in env.split(",") if b.strip()]
    return list(default)


def jobs(value: Optional[int] = None) -> int:
    """Resolve the worker count: explicit arg > ``REPRO_JOBS`` env > 1.

    Figure drivers default to serial so their behavior (and output
    interleaving) is unchanged unless the user opts in via ``--jobs`` or
    ``REPRO_JOBS``.
    """
    return resolve_jobs(value, default=1)


def collect(policies: Sequence[str], benchmarks: Sequence[str],
            instructions: int, warmup: int, seed: int = 1,
            config: Optional[Dict[str, object]] = None,
            n_jobs: Optional[int] = None,
            manifest: Optional[RunManifest] = None,
            ) -> Dict[str, Dict[str, SimulationStats]]:
    """{benchmark: {policy: stats}} through the default result store.

    The one local grid path, behind every figure driver and
    ``repro suite``: the grid compiles to a sweep plan (duplicate cells
    collapse to one) that :func:`~repro.sweeps.executor.run_sweep`
    resolves. Each cell is looked up once in the store, and only the
    misses simulate, across ``n_jobs`` worker processes (default: the
    ``REPRO_JOBS`` env, else serial). It writes no sweep state file.
    ``config`` holds :class:`~repro.simulator.config.MachineConfig`
    overrides, as a sweep spec's config table does (None: the default
    machine). The result is in the requested benchmark x policy order;
    a cell that fails raises ``RuntimeError`` naming it.

    ``manifest`` (``repro suite`` passes one; figures do not) receives
    one record per plan cell, in plan order, before any failure is
    raised; writing it is the caller's job. ``repro figure --store DIR``
    roots the store at ``DIR`` through the ``REPRO_STORE`` env (see
    DESIGN.md §13).
    """
    variant = (ConfigVariant(label="config", overrides=dict(config))
               if config else DEFAULT_CONFIG)
    grid = plan.compile_spec(SweepSpec(
        name=manifest.label if manifest is not None else "figure",
        benchmarks=tuple(benchmarks),
        policies=tuple(policies), configs=(variant,), seeds=(seed,),
        instructions=(instructions,), warmups=(warmup,)))
    report = executor.run_sweep(grid, jobs=jobs(n_jobs), state_path="")
    if manifest is not None:
        _record(manifest, grid, report,
                config_hash(config_from_payload(variant.as_payload())))
    failed = [(cell, error) for cell, source, _, error, _
              in report.outcomes.values() if source == "failed"]
    if failed:
        detail = "; ".join("%s (%s): %s" % (cell.benchmark, cell.policy, error)
                           for cell, error in failed[:5])
        raise RuntimeError("%d grid cell(s) failed: %s"
                           % (len(failed), detail))
    return report.results()


def _record(manifest: RunManifest, grid: plan.SweepPlan,
            report: executor.SweepReport, cfg_hash: str) -> None:
    """One manifest record per plan cell, from the sweep report."""
    for cell in grid.cells:
        _, source, stats, error, wall = report.outcomes[cell.key]
        # a cell missing from ``runs`` never ran: the store served it
        worker, attempts, telemetry = report.runs.get(
            cell.key, ("store", 0, None))
        manifest.add(CellRecord(
            benchmark=cell.benchmark, policy=cell.policy, seed=cell.seed,
            instructions=cell.instructions, warmup=cell.warmup,
            key=cell.key, config_hash=cfg_hash,
            cache_hit=source == "store", wall_time=wall, worker=worker,
            attempts=attempts, status="failed" if source == "failed" else "ok",
            error=error,
            stats=dict(stats.counters()) if stats is not None else None,
            telemetry=telemetry))


def speedup_pct(stats: SimulationStats, baseline: SimulationStats) -> float:
    """IPC speedup in percent (paper's y axis)."""
    return (stats.ipc / baseline.ipc - 1.0) * 100.0


def geomean_speedup_pct(rows: Dict[str, Dict[str, SimulationStats]],
                        policy: str, baseline: str = "baseline") -> float:
    """Geomean IPC speedup of a policy, in percent."""
    ratios = [by[policy].ipc / by[baseline].ipc for by in rows.values()]
    return (geomean(ratios) - 1.0) * 100.0


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Fixed-width text table (what the benches print)."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def speedup_bars_svg(result: Dict, policies: Sequence[str],
                     labels: Dict[str, str], title: str,
                     key: str = "speedups",
                     ylabel: str = "% IPC speedup") -> str:
    """Grouped-bar SVG for the per-benchmark speedup figures."""
    from repro.reporting_svg import grouped_bar_svg

    series = {
        labels.get(p, p): {bench: result[key][bench][p]
                           for bench in result["benchmarks"]}
        for p in policies
    }
    return grouped_bar_svg(series, title=title, ylabel=ylabel)
