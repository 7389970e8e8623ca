"""Suite runner: simulate (benchmark x policy) grids and compare IPC.

Layouts are generated once per (benchmark, seed) and shared across
policies (the same binary runs under every configuration, like the
paper's experiments); each policy still gets its own machine, caches,
and predictors. :func:`get_layout` memoizes the generated layouts —
simulation never mutates a layout, so sharing one object is safe.

Grids are embarrassingly parallel: every cell is an independent
simulation. :func:`execute_cells` runs a grid's store misses across a
:class:`~concurrent.futures.ProcessPoolExecutor`, retrying transient
worker failures with bounded backoff; it is the local pool of the sweep
executor (:mod:`repro.sweeps.executor`), through which the figure
drivers resolve their grids without writing a run manifest.
:func:`run_suite_parallel`, behind ``repro suite``, runs a grid on the
same pool after deduplicating its cells against the result store (and
against identical cells within the grid), and emits a JSON run
manifest (:mod:`repro.simulator.manifest`) recording per-cell wall
time, store hit/miss, and worker id. :func:`run_suite` is its serial
path — the same machinery with ``jobs=1`` — and produces bit-identical
stats.

The worker count resolves explicit argument > ``REPRO_JOBS`` env >
serial (see :func:`resolve_jobs`).
"""

from __future__ import annotations

import os
import sqlite3
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.simulator.config import MachineConfig
from repro.simulator.manifest import CellRecord, RunManifest, config_hash
from repro.simulator.policies import PolicySpec, build_machine, get_policy
from repro.simulator.stats import SimulationStats
from repro.utils import geomean, pool_child_init
from repro.workloads.generator import generate_layout
from repro.workloads.layout import CodeLayout
from repro.workloads.profiles import (
    BENCHMARK_NAMES,
    external_benchmark,
    get_profile,
)

#: default measured instructions (the paper runs 100M in gem5; the pure-
#: Python model uses a scaled-down budget — long enough for the PDIP
#: table, BTB, and caches to converge, see DESIGN.md)
DEFAULT_INSTRUCTIONS = 400_000
DEFAULT_WARMUP = 120_000

#: retry budget for transient worker failures (per cell, beyond try #1)
DEFAULT_RETRIES = 2
#: base backoff between retry rounds, doubled each round
_BACKOFF_S = 0.25

#: memoized layouts, keyed by (benchmark, seed); layouts are immutable
#: during simulation (walkers keep their own pattern/call-stack state)
_LAYOUT_CACHE: Dict[Tuple[str, int], CodeLayout] = {}


def get_layout(benchmark: str, seed: int = 1) -> CodeLayout:
    """The (memoized) synthetic binary for ``(benchmark, seed)``.

    Repeated calls return the *same* object, so every policy in a suite
    walks the identical layout.
    """
    key = (benchmark, seed)
    layout = _LAYOUT_CACHE.get(key)
    if layout is None:
        ext = external_benchmark(benchmark)
        if ext is not None:
            layout = ext.layout_builder(seed)
        else:
            layout = generate_layout(get_profile(benchmark), seed=seed)
        _LAYOUT_CACHE[key] = layout
    return layout


def clear_layout_cache() -> None:
    """Drop memoized layouts (tests; profile retuning)."""
    _LAYOUT_CACHE.clear()


def resolve_jobs(jobs: Optional[int] = None, default: int = 1) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` env > ``default``."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError("REPRO_JOBS must be an integer, got %r" % env)
    return max(1, int(default))


def run_benchmark(benchmark: str, policy: str,
                  instructions: int = DEFAULT_INSTRUCTIONS,
                  warmup: int = DEFAULT_WARMUP,
                  config: Optional[MachineConfig] = None,
                  seed: int = 1,
                  use_cache: bool = True,
                  telemetry=None,
                  store=None) -> SimulationStats:
    """Simulate one benchmark under one policy and return its stats.

    Results are memoized in the result store (see
    :mod:`repro.simulator.cache`): ``store``, or the default store
    (:func:`~repro.simulator.cache.open_store`) when it is None. Pass
    ``use_cache=False`` to force a fresh simulation; it is then written
    only to a ``store`` passed in.

    ``telemetry`` (a :class:`repro.telemetry.TelemetrySession`) attaches
    a trace recorder for the duration of the run and harvests component
    counters at detach. A telemetry run always simulates (the recorder
    needs the events), so the store *read* is bypassed — the stats are
    bit-identical either way, so the result is still stored.
    """
    from repro.simulator import cache as result_cache

    profile = get_profile(benchmark)
    spec = get_policy(policy) if isinstance(policy, str) else policy
    if store is None and use_cache:
        store = result_cache.open_store()
    # a pool worker (no store, no lookup) never needs the key
    key = (result_cache.run_key(benchmark, spec, instructions, warmup, seed,
                                config) if store is not None else "")
    if use_cache and telemetry is None:
        hit = store.get(key)
        if hit is not None:
            return hit
    layout = get_layout(benchmark, seed=seed)
    machine = build_machine(layout, profile, spec, config=config, seed=seed)
    if telemetry is not None:
        telemetry.attach(machine)
    try:
        stats = machine.run(instructions, warmup=warmup)
    finally:
        if telemetry is not None:
            telemetry.detach(machine)
    if store is not None:
        store.put(key, stats, meta={
            "benchmark": benchmark, "policy": spec.name, "seed": seed,
            "instructions": instructions, "warmup": warmup,
            "config_hash": config_hash(config), "worker": "main",
        })
    return stats


# ----------------------------------------------------------------------
# grid execution
# ----------------------------------------------------------------------
def _simulate_cell(cell: tuple
                   ) -> Tuple[SimulationStats, float, int, Optional[dict]]:
    """Pool worker: simulate one cell, bypassing the result store.

    The parent already filtered store hits and stores the result itself,
    so workers never touch the store.
    ``cell`` is ``(benchmark, spec, instructions, warmup, config, seed)``.

    When ``REPRO_TELEMETRY`` is on, each cell records through its own
    :class:`~repro.telemetry.TelemetrySession` (sized by
    ``REPRO_TELEMETRY_CAPACITY`` / ``REPRO_TELEMETRY_SAMPLE``) and the
    session summary rides back as the fourth tuple element for the
    manifest; otherwise that element is None and the simulation takes
    the zero-overhead null-handle path.
    """
    from repro.telemetry import TelemetrySession, telemetry_enabled

    benchmark, spec, instructions, warmup, config, seed = cell
    session = TelemetrySession.from_env() if telemetry_enabled() else None
    # wall time is manifest metadata, never simulation state
    t0 = time.perf_counter()  # repro: lint-ignore[determinism-wallclock]
    stats = run_benchmark(benchmark, spec, instructions=instructions,
                          warmup=warmup, config=config, seed=seed,
                          use_cache=False, telemetry=session)
    # repro: lint-ignore[determinism-wallclock]
    wall = time.perf_counter() - t0
    summary = session.summary() if session is not None else None
    return stats, wall, os.getpid(), summary


def _execute_cells(pending: Dict[str, tuple], jobs: int, retries: int,
                   ) -> Tuple[Dict[str, Tuple[SimulationStats, float, str,
                                              Optional[dict]]],
                              Dict[str, int], Dict[str, str]]:
    """Run the store-miss cells, in-process (``jobs==1``) or in a pool.

    Returns ``(results, attempts, errors)`` where ``results`` maps
    run-key to ``(stats, wall_time, worker_id, telemetry_summary)``.
    Cells that raised are retried up to ``retries`` extra rounds with
    doubling backoff (a fresh pool each round, so a broken pool is also
    recovered); cells still failing land in ``errors``.
    """
    remaining = dict(pending)
    results: Dict[str, Tuple[SimulationStats, float, str, Optional[dict]]] = {}
    attempts: Dict[str, int] = {key: 0 for key in pending}
    errors: Dict[str, str] = {}
    for round_no in range(retries + 1):
        if not remaining:
            break
        if round_no:
            time.sleep(_BACKOFF_S * (2 ** (round_no - 1)))
        failed: Dict[str, tuple] = {}
        errors = {}
        if jobs <= 1:
            for key, cell in remaining.items():
                attempts[key] += 1
                try:
                    stats, wall, _pid, tel = _simulate_cell(cell)
                    results[key] = (stats, wall, "main", tel)
                except Exception as exc:  # noqa: BLE001 - retried below
                    failed[key] = cell
                    errors[key] = repr(exc)
        else:
            with ProcessPoolExecutor(max_workers=jobs,
                                     initializer=pool_child_init) as pool:
                futures = {pool.submit(_simulate_cell, cell): key
                           for key, cell in remaining.items()}
                for future in as_completed(futures):
                    key = futures[future]
                    attempts[key] += 1
                    try:
                        stats, wall, pid, tel = future.result()
                        results[key] = (stats, wall, "pid:%d" % pid, tel)
                    except Exception as exc:  # noqa: BLE001 - retried below
                        failed[key] = remaining[key]
                        errors[key] = repr(exc)
        remaining = failed
    return results, attempts, errors


#: Public entry point for the sweep executor's local mode — identical
#: pool/retry semantics to the suite runner's internal call site, so a
#: declarative sweep and an imperative suite execute cells byte-for-byte
#: the same way.
execute_cells = _execute_cells


def run_suite_parallel(policies: Sequence[str],
                       benchmarks: Optional[Iterable[str]] = None,
                       instructions: int = DEFAULT_INSTRUCTIONS,
                       warmup: int = DEFAULT_WARMUP,
                       config: Optional[MachineConfig] = None,
                       seed: int = 1,
                       jobs: Optional[int] = None,
                       retries: int = DEFAULT_RETRIES,
                       verbose: bool = False,
                       manifest: Optional[RunManifest] = None,
                       store=None,
                       ) -> Dict[str, Dict[str, SimulationStats]]:
    """Run a (benchmark x policy) grid across a process pool.

    The grid runner of ``repro suite``; the figure drivers resolve their
    grids through the sweep executor instead (see
    :func:`repro.experiments.common.collect`).
    Returns ``{benchmark: {policy: stats}}``, exactly like
    :func:`run_suite` and with field-identical stats. Before dispatch,
    each cell's run key is looked up once in the result store: hits are
    served from it, and duplicate cells inside the grid collapse to one
    simulation. Misses are fanned out across ``jobs`` worker processes
    (``jobs`` resolves via :func:`resolve_jobs`, default
    ``os.cpu_count()``); failed cells are retried up to ``retries``
    extra rounds with doubling backoff. Every run writes a JSON manifest
    (per-cell timing, store hit/miss, worker id, stats counter digest,
    and — under ``REPRO_TELEMETRY=1`` — a per-cell telemetry summary;
    see :mod:`repro.simulator.manifest`); pass an explicit ``manifest``
    to accumulate several grids into one document, which the caller then
    writes. Two manifests compare cell-by-cell with ``repro diff``.

    ``store`` is the result store to use (None: the default store, see
    :func:`~repro.simulator.cache.open_store`). Hits appear in the
    manifest with worker ``store``; every freshly computed cell is
    written to it once, so a re-run against the same store performs zero
    simulations. A cell whose write fails (``OSError`` or
    ``sqlite3.Error``) counts as failed; the other cells are kept.
    """
    from repro.simulator import cache as result_cache

    if store is None:
        store = result_cache.open_store()

    names = (list(benchmarks) if benchmarks is not None
             else list(BENCHMARK_NAMES))
    specs = [get_policy(p) if isinstance(p, str) else p for p in policies]
    jobs = resolve_jobs(jobs, default=os.cpu_count() or 1)
    own_manifest = manifest is None
    if manifest is None:
        manifest = RunManifest(jobs=jobs)
    else:
        manifest.jobs = max(manifest.jobs, jobs)
    cfg_hash = config_hash(config)

    # one slot per grid cell; identical cells share a run key
    slots: Dict[str, List[Tuple[str, str]]] = {}
    cells: Dict[str, tuple] = {}
    for bench in names:
        for spec in specs:
            key = result_cache.run_key(bench, spec, instructions, warmup,
                                       seed, config)
            slots.setdefault(key, []).append((bench, spec.name))
            cells.setdefault(key, (bench, spec, instructions, warmup,
                                   config, seed))

    # serve store hits up front; only misses go to the workers
    hits: Dict[str, SimulationStats] = {}
    pending: Dict[str, tuple] = {}
    for key, cell in cells.items():
        stored = store.get(key)
        if stored is not None:
            hits[key] = stored
        else:
            pending[key] = cell

    computed, attempts, errors = _execute_cells(pending, jobs, retries)

    results: Dict[str, Dict[str, SimulationStats]] = {b: {} for b in names}
    for key, grid_slots in slots.items():
        bench, _ = grid_slots[0]
        telemetry = None
        if key in hits:
            stats, wall, worker, status, error = (
                hits[key], 0.0, "store", "ok", "")
            n_attempts = 0
        elif key in computed:
            stats, wall, worker, telemetry = computed[key]
            status, error = "ok", ""
            n_attempts = attempts[key]
            try:
                store.put(key, stats, meta={
                    "benchmark": bench, "policy": grid_slots[0][1],
                    "seed": seed, "instructions": instructions,
                    "warmup": warmup, "config_hash": cfg_hash,
                    "wall_time": wall, "worker": worker,
                    "attempts": n_attempts, "label": manifest.label,
                }, telemetry=telemetry)
            except (OSError, sqlite3.Error) as exc:
                # a full disk fails this cell, not the rest of the grid
                stats, status = None, "failed"
                error = errors[key] = "store write failed: %r" % (exc,)
        else:
            stats, wall, worker = None, 0.0, "none"
            status, error = "failed", errors.get(key, "unknown")
            n_attempts = attempts.get(key, 0)
        digest = dict(stats.counters()) if stats is not None else None
        for i, (bench, policy_name) in enumerate(grid_slots):
            if stats is not None:
                results[bench][policy_name] = stats
                if verbose:
                    print(f"{bench:16s} {policy_name:18s} {stats.summary()}")
            # duplicate grid slots share one simulation; only the first
            # slot carries its wall time, the rest are in-run dedup hits
            deduped = i > 0 and status == "ok"
            manifest.add(CellRecord(
                benchmark=bench, policy=policy_name, seed=seed,
                instructions=instructions, warmup=warmup, key=key,
                config_hash=cfg_hash,
                cache_hit=key in hits or deduped,
                wall_time=0.0 if deduped else wall,
                worker="dedup" if deduped and key not in hits else worker,
                attempts=n_attempts, status=status, error=error,
                stats=digest, telemetry=None if deduped else telemetry))

    if own_manifest:
        manifest.write()
    if errors:
        detail = "; ".join("%s (%s): %s"
                           % (slots[k][0][0], slots[k][0][1], msg)
                           for k, msg in list(errors.items())[:5])
        raise RuntimeError(
            "%d grid cell(s) failed after %d attempt(s): %s"
            % (len(errors), retries + 1, detail))
    return results


def run_suite(policies: Sequence[str], benchmarks: Optional[Iterable[str]] = None,
              instructions: int = DEFAULT_INSTRUCTIONS,
              warmup: int = DEFAULT_WARMUP,
              config: Optional[MachineConfig] = None,
              seed: int = 1,
              verbose: bool = False,
              store=None) -> Dict[str, Dict[str, SimulationStats]]:
    """Run a (benchmark x policy) grid serially.

    Returns ``{benchmark: {policy: stats}}``. The layout for each
    benchmark is generated once and reused across policies (see
    :func:`get_layout`). This is :func:`run_suite_parallel` with
    ``jobs=1`` — same store dedup, retry, and manifest behavior,
    bit-identical stats.
    """
    return run_suite_parallel(policies, benchmarks=benchmarks,
                              instructions=instructions, warmup=warmup,
                              config=config, seed=seed, jobs=1,
                              verbose=verbose, store=store)


def speedup(stats: SimulationStats, baseline: SimulationStats) -> float:
    """IPC speedup of ``stats`` over ``baseline`` (1.0 = no change)."""
    if baseline.ipc == 0:
        raise ValueError("baseline IPC is zero")
    return stats.ipc / baseline.ipc


def geomean_speedup(results: Dict[str, Dict[str, SimulationStats]],
                    policy: str, baseline: str = "baseline") -> float:
    """Geometric-mean IPC speedup of ``policy`` across all benchmarks."""
    ratios = [speedup(by_policy[policy], by_policy[baseline])
              for by_policy in results.values()]
    return geomean(ratios)
