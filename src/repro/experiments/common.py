"""Shared plumbing for the per-figure experiment drivers."""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.simulator.config import MachineConfig
from repro.simulator.runner import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_WARMUP,
    resolve_jobs,
    run_suite_parallel,
)
from repro.simulator.stats import SimulationStats
from repro.utils import geomean
from repro.workloads.profiles import BENCHMARK_NAMES

#: subset used by the heavy BTB-sweep figures when the caller does not
#: ask for the full suite (override with REPRO_BENCHMARKS=all)
SWEEP_BENCHMARKS = (
    "cassandra", "tomcat", "kafka", "tpcc", "verilator",
)


def budget(instructions: Optional[int] = None,
           warmup: Optional[int] = None) -> Tuple[int, int]:
    """Resolve the instruction budget: explicit args > env > defaults."""
    if instructions is None:
        instructions = int(os.environ.get("REPRO_INSTRUCTIONS",
                                          DEFAULT_INSTRUCTIONS))
    if warmup is None:
        warmup = int(os.environ.get("REPRO_WARMUP", DEFAULT_WARMUP))
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
            config: Optional[MachineConfig] = None,
            n_jobs: Optional[int] = None,
            ) -> Dict[str, Dict[str, SimulationStats]]:
    """{benchmark: {policy: stats}} through the default result store.

    Dispatches the grid via
    :func:`~repro.simulator.runner.run_suite_parallel` — cells fan out
    across ``n_jobs`` worker processes (default: the ``REPRO_JOBS``
    env, else serial) and every call emits a run manifest.
    ``repro figure --store DIR`` roots the store at ``DIR`` through the
    ``REPRO_STORE`` env (see DESIGN.md §13).
    """
    return run_suite_parallel(
        policies, benchmarks=benchmarks, instructions=instructions,
        warmup=warmup, config=config, seed=seed, jobs=jobs(n_jobs),
        label="experiment")


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
