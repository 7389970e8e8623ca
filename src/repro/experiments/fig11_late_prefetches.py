"""Figure 11: % of late prefetches (partial hits), PDIP(44) vs EIP(46).

The paper reports an average of 12.6% late for PDIP — the heavy majority
of its prefetches are timely.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments import common

POLICIES = ("pdip_44", "eip_46")


def run(instructions: Optional[int] = None, warmup: Optional[int] = None,
        benchmarks: Optional[Iterable[str]] = None, seed: int = 1) -> dict:
    """Compute this artifact's data series (see the module docstring)."""
    instructions, warmup = common.budget(instructions, warmup)
    benches = common.suite(benchmarks)
    grid = common.collect(POLICIES, benches, instructions, warmup, seed=seed)
    rows = {
        bench: {p: 100.0 * by[p].prefetch_late_fraction for p in POLICIES}
        for bench, by in grid.items()
    }
    avg = {p: sum(r[p] for r in rows.values()) / len(rows) for p in POLICIES}
    return {"benchmarks": benches, "rows": rows, "average": avg}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    headers = ["benchmark", "PDIP(44) % late", "EIP(46) % late"]
    rows = [[b, "%.1f" % result["rows"][b]["pdip_44"],
             "%.1f" % result["rows"][b]["eip_46"]]
            for b in result["benchmarks"]]
    rows.append(["Average", "%.1f" % result["average"]["pdip_44"],
                 "%.1f" % result["average"]["eip_46"]])
    return common.format_table(headers, rows,
                               title="Figure 11: late prefetches (%)")


def render_svg(result: dict) -> str:
    """SVG version of the late-prefetch bars."""
    from repro.reporting_svg import grouped_bar_svg

    series = {
        "PDIP(44)": {b: result["rows"][b]["pdip_44"]
                     for b in result["benchmarks"]},
        "EIP(46)": {b: result["rows"][b]["eip_46"]
                    for b in result["benchmarks"]},
    }
    return grouped_bar_svg(series, title="Figure 11: late prefetches",
                           ylabel="% late")
