"""EXTENSION (not a paper figure): related-work prefetcher comparison.

The paper's Section 8 discusses simpler and differently-shaped
prefetchers qualitatively; this experiment puts two of them on the same
simulator — a sequential next-line prefetcher (FNL-style) and RDIP
(return-address-stack directed) — next to EIP and PDIP, plus the paper's
evaluated-and-dropped PDIP path-information variant (Section 5.2).

Expected shape: next-line helps the sequential fraction only; RDIP
captures context-correlated misses but triggers too coarsely; PDIP wins
because it targets exactly the misses FDIP exposes.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments import common
from repro.reporting import hbar_chart

POLICIES = ("next_line", "rdip", "eip_46", "pdip_44", "pdip_44_path")
LABELS = {"next_line": "Next-line", "rdip": "RDIP", "eip_46": "EIP(46)",
          "pdip_44": "PDIP(44)", "pdip_44_path": "PDIP(44)+path"}


def run(instructions: Optional[int] = None, warmup: Optional[int] = None,
        benchmarks: Optional[Iterable[str]] = None, seed: int = 1) -> dict:
    """Compute this artifact's data series (see the module docstring)."""
    instructions, warmup = common.budget(instructions, warmup)
    benches = common.suite(benchmarks, default=common.SWEEP_BENCHMARKS)
    grid = common.collect(("baseline",) + POLICIES, benches,
                          instructions, warmup, seed=seed)
    speedups = {
        bench: {p: common.speedup_pct(by[p], by["baseline"])
                for p in POLICIES}
        for bench, by in grid.items()
    }
    geomeans = {p: common.geomean_speedup_pct(grid, p) for p in POLICIES}
    metrics = {
        p: {
            "ppki": sum(grid[b][p].ppki for b in benches) / len(benches),
            "accuracy_pct": 100.0 * sum(grid[b][p].prefetch_accuracy
                                        for b in benches) / len(benches),
        }
        for p in POLICIES
    }
    return {"benchmarks": benches, "speedups": speedups,
            "geomeans": geomeans, "metrics": metrics}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    headers = ["benchmark"] + [LABELS[p] for p in POLICIES]
    rows = []
    for bench in result["benchmarks"]:
        rows.append([bench] + ["%+.2f%%" % result["speedups"][bench][p]
                               for p in POLICIES])
    rows.append(["Geomean"] + ["%+.2f%%" % result["geomeans"][p]
                               for p in POLICIES])
    table = common.format_table(
        headers, rows,
        title="Extension: related-work prefetchers on the same machine")
    mrows = [[LABELS[p], "%.1f" % result["metrics"][p]["ppki"],
              "%.0f" % result["metrics"][p]["accuracy_pct"]]
             for p in POLICIES]
    mtable = common.format_table(["policy", "PPKI", "accuracy %"], mrows)
    chart = hbar_chart(
        {"geomean": {LABELS[p]: result["geomeans"][p] for p in POLICIES}},
        title="geomean speedup over FDIP")
    return table + "\n\n" + mtable + "\n\n" + chart


def render_svg(result: dict) -> str:
    """SVG version of the related-work comparison bars."""
    return common.speedup_bars_svg(
        result, POLICIES, LABELS,
        "Extension: related-work prefetchers")
