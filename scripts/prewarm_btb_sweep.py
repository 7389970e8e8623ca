"""Pre-warm the result store for the BTB-sweep figures (fig14/15).

A thin front end over the declarative sweep engine: the grid — sweep
benchmarks x headline policies x {4K, 64K} BTB entries — lives in
``examples/sweeps/btb_sweep.toml``; this script compiles and executes
it (``--jobs N`` or ``REPRO_JOBS``). Cells already in the store
(``--store DIR``, else ``REPRO_STORE``, else ``<cache dir>/store``) are
skipped.
"""
import argparse
import time
from pathlib import Path

from repro.simulator.cache import open_store
from repro.sweeps import compile_spec, load_spec, run_sweep

SPEC = Path(__file__).resolve().parents[1] / "examples" / "sweeps" / "btb_sweep.toml"


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
