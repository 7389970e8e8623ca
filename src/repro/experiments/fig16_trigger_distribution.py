"""Figure 16: distribution of PDIP prefetch triggers.

The paper: 89% of issued prefetch targets are triggered by mispredicting
branches (including BTB misses), 11% by last-taken-branch triggers.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments import common


def run(instructions: Optional[int] = None, warmup: Optional[int] = None,
        benchmarks: Optional[Iterable[str]] = None, seed: int = 1) -> dict:
    """Compute this artifact's data series (see the module docstring)."""
    instructions, warmup = common.budget(instructions, warmup)
    benches = common.suite(benchmarks)
    grid = common.collect(("pdip_44",), benches, instructions, warmup,
                          seed=seed)
    rows = {}
    for bench, by in grid.items():
        st = by["pdip_44"]
        total = st.pdip_triggers_mispredict + st.pdip_triggers_last_taken
        mis = (100.0 * st.pdip_triggers_mispredict / total) if total else 0.0
        rows[bench] = {"mispredict_pct": mis, "last_taken_pct": 100.0 - mis
                       if total else 0.0}
    avg_mis = sum(r["mispredict_pct"] for r in rows.values()) / len(rows)
    return {"benchmarks": benches, "rows": rows,
            "average": {"mispredict_pct": avg_mis,
                        "last_taken_pct": 100.0 - avg_mis}}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    headers = ["benchmark", "% mispredict triggers", "% last-taken triggers"]
    rows = [[b, "%.1f" % result["rows"][b]["mispredict_pct"],
             "%.1f" % result["rows"][b]["last_taken_pct"]]
            for b in result["benchmarks"]]
    rows.append(["Average", "%.1f" % result["average"]["mispredict_pct"],
                 "%.1f" % result["average"]["last_taken_pct"]])
    return common.format_table(
        headers, rows, title="Figure 16: PDIP prefetch trigger distribution")


def render_svg(result: dict) -> str:
    """SVG version of the trigger-distribution bars."""
    from repro.reporting_svg import grouped_bar_svg

    series = {
        "mispredict triggers": {b: result["rows"][b]["mispredict_pct"]
                                for b in result["benchmarks"]},
        "last-taken triggers": {b: result["rows"][b]["last_taken_pct"]
                                for b in result["benchmarks"]},
    }
    return grouped_bar_svg(series,
                           title="Figure 16: trigger distribution",
                           ylabel="% of issued prefetches")
