"""Figure 4: FEC lines and the decode starvation they cause.

First bar: dynamic FEC lines as a fraction of all retired-path lines.
Second bar: decode-starvation cycles caused by FEC lines vs total decode
starvation. The paper's punchline: ~10% of lines cause ~62% of decode
starvation.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments import common


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
        rows[bench] = {
            "fec_line_pct": 100.0 * st.fec_line_fraction,
            "fec_starvation_pct": 100.0 * st.fec_starvation_fraction,
        }
    avg = {
        "fec_line_pct": sum(r["fec_line_pct"] for r in rows.values()) / len(rows),
        "fec_starvation_pct": sum(r["fec_starvation_pct"]
                                  for r in rows.values()) / len(rows),
    }
    return {"benchmarks": benches, "rows": rows, "average": avg}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    headers = ["benchmark", "% FEC lines", "% FEC starvation"]
    rows = [[b, "%.1f" % result["rows"][b]["fec_line_pct"],
             "%.1f" % result["rows"][b]["fec_starvation_pct"]]
            for b in result["benchmarks"]]
    rows.append(["Average", "%.1f" % result["average"]["fec_line_pct"],
                 "%.1f" % result["average"]["fec_starvation_pct"]])
    return common.format_table(
        headers, rows,
        title="Figure 4: FEC line fraction and FEC-caused decode starvation")


def render_svg(result: dict) -> str:
    """SVG version: FEC line share vs FEC starvation share."""
    from repro.reporting_svg import grouped_bar_svg

    series = {
        "% FEC lines": {b: result["rows"][b]["fec_line_pct"]
                        for b in result["benchmarks"]},
        "% FEC starvation": {b: result["rows"][b]["fec_starvation_pct"]
                             for b in result["benchmarks"]},
    }
    return grouped_bar_svg(series, title="Figure 4: FEC concentration",
                           ylabel="%")
