"""Figure 1: top-down issue-slot breakdown of cassandra on the baseline.

The paper reports (Alder Lake + VTune): Retiring 16.9%, Front-End Bound
53.6%, Bad Speculation 10.6%, Back-End Bound 18.9%.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments import common
from repro.reporting import stacked_pct_bar

BENCHMARK = "cassandra"

PAPER = {
    "retiring": 16.9,
    "frontend_bound": 53.6,
    "bad_speculation": 10.6,
    "backend_bound": 18.9,
}


def run(instructions: Optional[int] = None, warmup: Optional[int] = None,
        seed: int = 1) -> dict:
    """Compute this artifact's data series (see the module docstring)."""
    instructions, warmup = common.budget(instructions, warmup)
    stats = common.collect(["baseline"], [BENCHMARK], instructions, warmup,
                           seed=seed)[BENCHMARK]["baseline"]
    measured = {k: 100.0 * v for k, v in stats.topdown.items()}
    return {"benchmark": BENCHMARK, "measured": measured, "paper": PAPER}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    rows = [
        (bucket, result["paper"][bucket], result["measured"][bucket])
        for bucket in ("retiring", "frontend_bound", "bad_speculation",
                       "backend_bound")
    ]
    table = common.format_table(
        ["bucket", "paper %", "measured %"], rows,
        title="Figure 1: top-down slots, %s (baseline FDIP)"
              % result["benchmark"])
    chart = stacked_pct_bar(result["measured"], title="measured slots:")
    return table + "\n\n" + chart


def main() -> None:
    """Entry point: run with env-controlled budgets and print."""
    print(render(run()))


if __name__ == "__main__":
    main()
