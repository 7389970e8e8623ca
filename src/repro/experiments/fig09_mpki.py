"""Figure 9: MPKI at L1-I, L2-I, L2-D, and L3 on the baseline.

The paper reports averages of 85.9 (L1-I), 12.4 (L2-I) and 3.06 (L3)
across the suite — the large-code-footprint regime every other result
depends on.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments import common

PAPER_AVERAGES = {"l1i": 85.9, "l2i": 12.4, "l3": 3.06}


def run(instructions: Optional[int] = None, warmup: Optional[int] = None,
        benchmarks: Optional[Iterable[str]] = None, seed: int = 1) -> dict:
    """Compute this artifact's data series (see the module docstring)."""
    instructions, warmup = common.budget(instructions, warmup)
    benches = common.suite(benchmarks)
    grid = common.collect(("baseline",), benches, instructions, warmup,
                          seed=seed)
    rows = {}
    for bench, by in grid.items():
        st = by["baseline"]
        rows[bench] = {"l1i": st.l1i_mpki, "l2i": st.l2i_mpki,
                       "l2d": st.l2d_mpki, "l3": st.l3_mpki}
    avg = {k: sum(r[k] for r in rows.values()) / len(rows)
           for k in ("l1i", "l2i", "l2d", "l3")}
    return {"benchmarks": benches, "rows": rows, "average": avg,
            "paper_average": PAPER_AVERAGES}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    headers = ["benchmark", "L1I", "L2I", "L2D", "L3"]
    rows = [[b] + ["%.1f" % result["rows"][b][k]
                   for k in ("l1i", "l2i", "l2d", "l3")]
            for b in result["benchmarks"]]
    rows.append(["Average"] + ["%.1f" % result["average"][k]
                               for k in ("l1i", "l2i", "l2d", "l3")])
    return common.format_table(
        headers, rows, title="Figure 9: baseline MPKI per cache level")


def render_svg(result: dict) -> str:
    """SVG version of the per-level MPKI bars."""
    from repro.reporting_svg import grouped_bar_svg

    series = {
        level.upper(): {b: result["rows"][b][level]
                        for b in result["benchmarks"]}
        for level in ("l1i", "l2i", "l2d", "l3")
    }
    return grouped_bar_svg(series, title="Figure 9: baseline MPKI",
                           ylabel="MPKI")
