"""Pre-warm the result store for the main figure grid.

A thin front end over the declarative sweep engine: the grid itself
lives in ``examples/sweeps/main_grid.toml`` and this script just
compiles and executes it (``--jobs N`` or ``REPRO_JOBS``; default: all
cores). Cells already in the store (``--store DIR``, else
``REPRO_STORE``, else ``<cache dir>/store``) are skipped; only dirty
cells simulate, so re-running after a config tweak re-executes exactly
the affected cells.
"""
import argparse
import time
from pathlib import Path

from repro.simulator.cache import open_store
from repro.sweeps import compile_spec, load_spec, run_sweep

SPEC = Path(__file__).resolve().parents[1] / "examples" / "sweeps" / "main_grid.toml"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS, "
                             "else all cores)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="result store root (default: REPRO_STORE "
                             "env, else <cache dir>/store)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="also write the JSON sweep report here")
    args = parser.parse_args()
    store = open_store(args.store)

    t0 = time.time()
    plan = compile_spec(load_spec(SPEC))
    report = run_sweep(plan, store=store, jobs=args.jobs,
                       report_path=args.report, verbose=True)
    counts = report.counts
    print(f"DONE {counts['total']} cells: {counts['store']} store, "
          f"{counts['executed']} executed, "
          f"{counts['failed']} failed in {time.time() - t0:.0f}s")
    raise SystemExit(1 if counts["failed"] else 0)


if __name__ == "__main__":
    main()
