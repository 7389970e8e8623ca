"""``repro bench`` — wall-clock benchmark of the simulation core.

Times representative (benchmark x policy) cells — short and long
budgets, each prefetcher family, probe attached and detached — and
writes ``BENCH_runner.json`` with per-cell simulated cycles/sec plus
the speedup against a recorded baseline (``benchmarks/bench_baseline.json``
by default, recorded from the pre-event-horizon seed implementation).

Cross-host comparability: raw cycles/sec depends on the machine running
the bench, so a small pure-Python *calibration kernel* runs right before
each cell's timed repeats, and the cell's score is normalized by that
cell's own calibration (``norm = cycles_per_sec / calib_score``). The
CI regression gate compares normalized scores, which cancels most
host-speed variation, including a host that speeds up or slows down
while the grid runs; same-host comparisons (e.g. the committed baseline
vs. an optimization branch on one workstation) can use the raw numbers
directly.

Usage::

    python -m repro bench                  # default grid, write BENCH_runner.json
    python -m repro bench --quick          # small subset for CI smoke
    python -m repro bench --record-baseline benchmarks/bench_baseline.json
    python -m repro bench --check          # fail (exit 1) on changed modelled
                                           # work or >tolerance regression

The bench refuses to run (exit 2) while ``REPRO_TELEMETRY=1`` is set:
a score taken with the trace recorder attached measures telemetry
overhead, not the simulator, and must never land in
``BENCH_runner.json`` or a recorded baseline.

The bench also bypasses the result store (``REPRO_STORE`` is ignored;
there is no ``--store`` flag): a bench score must time a real
simulation, never a lookup. Each cell builds its machine directly and
calls ``Machine.run``, so no caching layer can intervene.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.simulator.policies import build_machine, get_policy
from repro.simulator.probe import TimelineProbe
from repro.simulator.runner import get_layout
from repro.utils import geomean
from repro.workloads.profiles import get_profile

#: default output document, at the repo root (next to the run manifests)
DEFAULT_OUT = "BENCH_runner.json"

#: default recorded baseline (committed; recorded from the seed
#: per-cycle implementation before the event-horizon fast path landed)
DEFAULT_BASELINE = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_baseline.json"

#: allowed normalized-score regression before --check fails (the CI gate)
DEFAULT_TOLERANCE = 0.20


@dataclass
class BenchCell:
    """One timed simulation: a (benchmark, policy, budget, probe) point."""

    name: str
    benchmark: str
    policy: str
    instructions: int
    warmup: int
    seed: int = 1
    probe: bool = False

    @property
    def key(self) -> str:
        """Stable identity used to join runs against the baseline."""
        return self.name


def _cell(name, benchmark, policy, instructions, warmup, **kw) -> BenchCell:
    return BenchCell(name=name, benchmark=benchmark, policy=policy,
                     instructions=instructions, warmup=warmup, **kw)


#: the default grid's representative cells: short and long budgets,
#: every prefetcher family (none / next-line / RDIP / EIP / PDIP),
#: and the probe-attached path (which disables cycle skipping)
DEFAULT_CELLS: List[BenchCell] = [
    _cell("tatp-baseline-short", "tatp", "baseline", 40_000, 8_000),
    _cell("tatp-pdip44-short", "tatp", "pdip_44", 40_000, 8_000),
    _cell("dotty-pdip44-short", "dotty", "pdip_44", 40_000, 8_000),
    _cell("kafka-eip46-short", "kafka", "eip_46", 40_000, 8_000),
    _cell("tomcat-nextline-short", "tomcat", "next_line", 40_000, 8_000),
    _cell("xalan-rdip-short", "xalan", "rdip", 40_000, 8_000),
    _cell("tatp-pdip44-long", "tatp", "pdip_44", 150_000, 30_000),
    _cell("dotty-baseline-long", "dotty", "baseline", 150_000, 30_000),
    _cell("tatp-pdip44-probe", "tatp", "pdip_44", 40_000, 8_000, probe=True),
    # ingested-trace workloads: replayer-driven frontend (no PathWalker)
    _cell("trphase-pdip44-short", "trace-phase", "pdip_44", 40_000, 8_000),
    _cell("trcold-baseline-short", "trace-coldburst", "baseline",
          40_000, 8_000),
]

#: CI smoke subset (~15 s of simulation on a laptop-class host)
QUICK_CELLS: List[BenchCell] = [
    _cell("tatp-baseline-short", "tatp", "baseline", 40_000, 8_000),
    _cell("tatp-pdip44-short", "tatp", "pdip_44", 40_000, 8_000),
    _cell("kafka-eip46-short", "kafka", "eip_46", 40_000, 8_000),
    _cell("tatp-pdip44-probe", "tatp", "pdip_44", 40_000, 8_000, probe=True),
]


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def calibrate(iterations: int = 3) -> float:
    """Host-speed score from a fixed pure-Python kernel (higher = faster).

    The kernel exercises the same primitives the simulator leans on
    (dict lookups, attribute access, integer arithmetic, RNG), so the
    normalized cell scores transfer across hosts reasonably well. Best
    of ``iterations`` to shrug off scheduler noise.
    """
    import random

    best = 0.0
    for _ in range(iterations):
        rng = random.Random(1234)
        d: Dict[int, int] = {}
        t0 = time.perf_counter()
        acc = 0
        for i in range(120_000):
            key = (i * 2654435761) & 0xFFFF
            d[key] = d.get(key, 0) + 1
            acc += d[key] + (i % 7)
            if rng.random() < 0.01:
                acc ^= key
        dt = time.perf_counter() - t0
        best = max(best, 120_000 / dt)
    return best


# ----------------------------------------------------------------------
# cell execution
# ----------------------------------------------------------------------
def run_cell(cell: BenchCell, repeats: int = 2) -> Dict[str, object]:
    """Time one cell; returns its result record (best wall of ``repeats``).

    Layout generation and machine construction are excluded from the
    timed region — only :meth:`Machine.run` is measured. The simulated
    cycles/sec figure counts *all* simulated cycles (warmup included),
    because the wall time covers them too.
    """
    profile = get_profile(cell.benchmark)
    layout = get_layout(cell.benchmark, seed=cell.seed)
    best_wall = None
    cycles = 0
    ipc = 0.0
    skipped = 0
    for _ in range(max(1, repeats)):
        machine = build_machine(layout, profile, get_policy(cell.policy),
                                seed=cell.seed)
        if cell.probe:
            machine.probe = TimelineProbe(sample_every=200)
        t0 = time.perf_counter()
        stats = machine.run(cell.instructions, warmup=cell.warmup)
        wall = time.perf_counter() - t0
        cycles = machine.cycle
        ipc = stats.ipc
        skipped = machine.fast_forwarded_cycles
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return {
        "name": cell.name,
        "benchmark": cell.benchmark,
        "policy": cell.policy,
        "instructions": cell.instructions,
        "warmup": cell.warmup,
        "seed": cell.seed,
        "probe": cell.probe,
        "wall_s": best_wall,
        "simulated_cycles": cycles,
        "cycles_per_sec": cycles / best_wall if best_wall else 0.0,
        "ipc": ipc,
        "fast_forwarded_cycles": skipped,
    }


@dataclass
class BenchReport:
    """Aggregated bench run: per-cell records plus baseline comparison.

    ``calib`` is the median of the cells' own calibration scores.
    """

    calib: float
    cells: List[Dict[str, object]] = field(default_factory=list)
    baseline_path: Optional[str] = None
    baseline_calib: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "schema": 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "calib_score": self.calib,
            "baseline": self.baseline_path,
            "cells": self.cells,
        }
        speedups = [c["speedup_vs_baseline"] for c in self.cells
                    if isinstance(c.get("speedup_vs_baseline"), float)]
        if speedups:
            doc["geomean_speedup_vs_baseline"] = geomean(speedups)
        norm_ratios = [c["norm_ratio_vs_baseline"] for c in self.cells
                       if isinstance(c.get("norm_ratio_vs_baseline"), float)]
        if norm_ratios:
            doc["geomean_norm_ratio_vs_baseline"] = geomean(norm_ratios)
        return doc


def load_baseline(path) -> Optional[Dict[str, object]]:
    """Parse a recorded baseline document (None when absent)."""
    path = Path(path)
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def run_bench(cells: List[BenchCell], repeats: int = 2,
              baseline_path=DEFAULT_BASELINE,
              verbose: bool = True) -> BenchReport:
    """Run the grid and join each cell against the recorded baseline.

    The host is calibrated right before each cell, so a cell is
    normalized by the host speed it actually ran at.
    """
    baseline = load_baseline(baseline_path) if baseline_path else None
    base_cells = {c["name"]: c for c in baseline["cells"]} if baseline else {}
    base_calib = baseline.get("calib_score") if baseline else None
    report = BenchReport(calib=0.0,
                         baseline_path=str(baseline_path) if baseline else None,
                         baseline_calib=base_calib)
    for cell in cells:
        calib = calibrate()
        rec = run_cell(cell, repeats=repeats)
        rec["calib_score"] = calib
        rec["norm_score"] = rec["cycles_per_sec"] / calib
        base = base_cells.get(cell.name)
        if base:
            rec["baseline_simulated_cycles"] = base["simulated_cycles"]
            rec["baseline_ipc"] = base["ipc"]
            rec["baseline_cycles_per_sec"] = base["cycles_per_sec"]
            rec["speedup_vs_baseline"] = (
                rec["cycles_per_sec"] / base["cycles_per_sec"])
            if base.get("norm_score"):
                rec["norm_ratio_vs_baseline"] = (
                    rec["norm_score"] / base["norm_score"])
        report.cells.append(rec)
        if verbose:
            extra = ""
            if "speedup_vs_baseline" in rec:
                extra = "  %5.2fx vs baseline" % rec["speedup_vs_baseline"]
            print("%-24s %9.0f cyc/s%s" % (cell.name,
                                           rec["cycles_per_sec"], extra))
    if report.cells:
        report.calib = statistics.median(
            rec["calib_score"] for rec in report.cells)
    return report


def check_regression(report: BenchReport,
                     tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Modelled-work and normalized-score check; returns failure messages.

    A cell fails when it simulated something other than the baseline
    cell of the same name (its ``simulated_cycles`` or ``ipc`` differs:
    a faster core must model the same work), or when its host-normalized
    score drops more than ``tolerance`` below the baseline's normalized
    score. ``fast_forwarded_cycles`` is not compared, since a better
    event horizon may skip more cycles of the same simulation. Cells
    missing from the baseline are skipped (new cells never gate).
    """
    failures = []
    for rec in report.cells:
        for field in ("simulated_cycles", "ipc"):
            want = rec.get("baseline_" + field)
            if want is not None and rec[field] != want:
                failures.append(
                    "%s: %s %r differs from the baseline's %r (the cell "
                    "models different work)" % (rec["name"], field,
                                                rec[field], want))
        ratio = rec.get("norm_ratio_vs_baseline")
        if not isinstance(ratio, float):
            continue
        if ratio < 1.0 - tolerance:
            failures.append(
                "%s: normalized score regressed to %.2fx of baseline "
                "(tolerance %.0f%%)" % (rec["name"], ratio, tolerance * 100))
    return failures


def write_report(report: BenchReport, out_path=DEFAULT_OUT) -> Path:
    """Write ``BENCH_runner.json``; returns the path."""
    out = Path(out_path)
    with open(out, "w") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return out


def record_baseline(cells: List[BenchCell], out_path, repeats: int = 2,
                    verbose: bool = True) -> Path:
    """Record the current implementation's scores as the new baseline."""
    report = run_bench(cells, repeats=repeats, baseline_path=None,
                       verbose=verbose)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return out


# ----------------------------------------------------------------------
# CLI glue (invoked from repro.cli)
# ----------------------------------------------------------------------
def main(args) -> int:
    """Drive a bench run from parsed ``repro bench`` arguments."""
    from repro.telemetry import telemetry_enabled

    if telemetry_enabled():
        # a bench score taken with the trace recorder attached measures
        # telemetry overhead, not the simulator — refuse to record it
        print("repro bench: REPRO_TELEMETRY is enabled; refusing to "
              "benchmark with the trace recorder attached.\n"
              "Bench scores must measure the simulator's zero-overhead "
              "path — unset REPRO_TELEMETRY and rerun.", file=sys.stderr)
        return 2
    cells = QUICK_CELLS if args.quick else DEFAULT_CELLS
    if args.cells:
        wanted = {name.strip() for name in args.cells.split(",")}
        index = {c.name: c for c in DEFAULT_CELLS}
        unknown = wanted - set(index)
        if unknown:
            print("unknown bench cells: %s" % ", ".join(sorted(unknown)),
                  file=sys.stderr)
            print("available: %s" % ", ".join(sorted(index)), file=sys.stderr)
            return 2
        cells = [index[name] for name in sorted(wanted)]
    if args.record_baseline:
        out = record_baseline(cells, args.record_baseline,
                              repeats=args.repeats)
        print("baseline recorded to %s" % out)
        return 0
    report = run_bench(cells, repeats=args.repeats,
                       baseline_path=args.baseline)
    out = write_report(report, args.out)
    doc = report.to_dict()
    if "geomean_speedup_vs_baseline" in doc:
        print("geomean speedup vs baseline: %.2fx"
              % doc["geomean_speedup_vs_baseline"])
    print("report: %s" % out)
    if args.check:
        failures = check_regression(report, tolerance=args.tolerance)
        if failures:
            for msg in failures:
                print("REGRESSION: " + msg, file=sys.stderr)
            return 1
        print("regression check passed (same modelled work, "
              "tolerance %.0f%%)"
              % (args.tolerance * 100))
    return 0
