"""Figure 13: PDIP table size sensitivity (11 / 22 / 43.5 / 87 KB).

The paper varies associativity 2-16 at fixed 512 sets and sees strong
scaling up to 43.5 KB, diminishing beyond.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments import common

POLICIES = ("pdip_11", "pdip_22", "pdip_44", "pdip_87")
LABELS = {"pdip_11": "PDIP(11)", "pdip_22": "PDIP(22)",
          "pdip_44": "PDIP(44)", "pdip_87": "PDIP(87)"}


def run(instructions: Optional[int] = None, warmup: Optional[int] = None,
        benchmarks: Optional[Iterable[str]] = None, seed: int = 1) -> dict:
    """Compute this artifact's data series (see the module docstring)."""
    instructions, warmup = common.budget(instructions, warmup)
    benches = common.suite(benchmarks)
    grid = common.collect(("baseline",) + POLICIES, benches,
                          instructions, warmup, seed=seed)
    speedups = {
        bench: {p: common.speedup_pct(by[p], by["baseline"])
                for p in POLICIES}
        for bench, by in grid.items()
    }
    geomeans = {p: common.geomean_speedup_pct(grid, p) for p in POLICIES}
    return {"benchmarks": benches, "speedups": speedups, "geomeans": geomeans}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    headers = ["benchmark"] + [LABELS[p] for p in POLICIES]
    rows = []
    for bench in result["benchmarks"]:
        rows.append([bench] + ["%+.2f%%" % result["speedups"][bench][p]
                               for p in POLICIES])
    rows.append(["Geomean"] + ["%+.2f%%" % result["geomeans"][p]
                               for p in POLICIES])
    return common.format_table(
        headers, rows, title="Figure 13: PDIP table size sensitivity")


def render_svg(result: dict) -> str:
    """SVG version of the grouped-bar figure."""
    return common.speedup_bars_svg(result, POLICIES, LABELS,
                                   "Figure 13: PDIP table size sensitivity")
