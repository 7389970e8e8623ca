"""Suite runner: simulate (benchmark x policy) grids and compare IPC.

Layouts are generated once per (benchmark, seed) and shared across
policies (the same binary runs under every configuration, like the
paper's experiments); each policy still gets its own machine, caches,
and predictors. :func:`get_layout` memoizes the generated layouts —
simulation never mutates a layout, so sharing one object is safe.

Grids are embarrassingly parallel: every cell is an independent
simulation. :func:`run_suite_parallel` fans the cells of a grid out
across a :class:`~concurrent.futures.ProcessPoolExecutor`, deduplicates
cells against the on-disk result cache (and against identical cells
within the same grid) before dispatch, retries transient worker
failures with bounded backoff, and emits a JSON run manifest
(:mod:`repro.simulator.manifest`) recording per-cell wall time, cache
hit/miss, and worker id. :func:`run_suite` is the serial path — the
same machinery with ``jobs=1`` — and produces bit-identical stats.

The worker count resolves explicit argument > ``REPRO_JOBS`` env >
serial (see :func:`resolve_jobs`).
"""

from __future__ import annotations

import os
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

    Results are memoized on disk (see :mod:`repro.simulator.cache`);
    pass ``use_cache=False`` to force a fresh simulation.

    ``store`` is an optional durable result store — any object with the
    ``get(key) -> stats`` / ``put(key, stats, meta=...)`` surface of
    :class:`repro.service.store.ResultStore` (duck-typed so this layer
    never imports the service). It is consulted after the local file
    cache and written alongside it; a store hit also warms the local
    cache so the next run skips the store round-trip.

    ``telemetry`` (a :class:`repro.telemetry.TelemetrySession`) attaches
    a trace recorder for the duration of the run and harvests component
    counters at detach. A telemetry run always simulates (the recorder
    needs the events), so the cache *read* is bypassed — the stats are
    bit-identical either way, so the result is still stored.
    """
    from repro.simulator import cache as result_cache

    profile = get_profile(benchmark)
    spec = get_policy(policy) if isinstance(policy, str) else policy
    key = result_cache.run_key(benchmark, spec, instructions, warmup, seed,
                               config)
    if use_cache and telemetry is None:
        hit = result_cache.load(key)
        if hit is not None:
            return hit
        if store is not None:
            hit = store.get(key)
            if hit is not None:
                result_cache.store(key, hit)
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
    if use_cache:
        result_cache.store(key, stats)
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
    """Pool worker: simulate one cell, bypassing the on-disk cache.

    The parent already filtered cache hits and stores the result itself,
    so workers never touch the cache (no concurrent writes).
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
    """Run the cache-miss cells, in-process (``jobs==1``) or in a pool.

    Returns ``(results, attempts, errors)`` where ``results`` maps
    run-key to ``(stats, wall_time, worker_id, telemetry_summary)``.
    Cells that raised are retried up to ``retries`` extra rounds with
    doubling backoff (a fresh pool each round, so a broken pool is also
    recovered); cells still failing land in ``errors``. Before a cell
    is re-submitted, any partial ``<key>.*.tmp`` artifacts a crashed
    worker left in the result cache are deleted — the retry must run
    against a clean slate, not on top of a truncated temp file.
    """
    from repro.simulator import cache as result_cache

    remaining = dict(pending)
    results: Dict[str, Tuple[SimulationStats, float, str, Optional[dict]]] = {}
    attempts: Dict[str, int] = {key: 0 for key in pending}
    errors: Dict[str, str] = {}
    for round_no in range(retries + 1):
        if not remaining:
            break
        if round_no:
            time.sleep(_BACKOFF_S * (2 ** (round_no - 1)))
            for key in remaining:
                result_cache.cleanup_stale_tmp(key)
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
                       label: str = "suite",
                       store=None,
                       ) -> Dict[str, Dict[str, SimulationStats]]:
    """Run a (benchmark x policy) grid across a process pool.

    Returns ``{benchmark: {policy: stats}}``, exactly like
    :func:`run_suite` and with field-identical stats. Before dispatch,
    each cell's result-cache key is computed: cache hits are served from
    disk, and duplicate cells inside the grid collapse to one
    simulation. Misses are fanned out across ``jobs`` worker processes
    (``jobs`` resolves via :func:`resolve_jobs`, default
    ``os.cpu_count()``); failed cells are retried up to ``retries``
    extra rounds with doubling backoff. Every run writes a JSON manifest
    (per-cell timing, cache hit/miss, worker id, stats counter digest,
    and — under ``REPRO_TELEMETRY=1`` — a per-cell telemetry summary;
    see :mod:`repro.simulator.manifest`); pass an explicit ``manifest``
    to accumulate several grids into one document, which the caller then
    writes. Two manifests compare cell-by-cell with ``repro diff``.

    ``store`` is an optional durable result store (duck-typed — see
    :func:`run_benchmark`): consulted for each cell after the local
    file cache (hits appear in the manifest with worker ``store``) and
    written with every freshly computed cell, so a sweep re-run against
    the same store performs zero simulations.
    """
    from repro.simulator import cache as result_cache

    names = (list(benchmarks) if benchmarks is not None
             else list(BENCHMARK_NAMES))
    specs = [get_policy(p) if isinstance(p, str) else p for p in policies]
    jobs = resolve_jobs(jobs, default=os.cpu_count() or 1)
    own_manifest = manifest is None
    if manifest is None:
        manifest = RunManifest(label=label, jobs=jobs)
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

    # serve cache/store hits up front; only misses go to the workers
    hits: Dict[str, SimulationStats] = {}
    hit_source: Dict[str, str] = {}
    pending: Dict[str, tuple] = {}
    for key, cell in cells.items():
        cached = result_cache.load(key)
        if cached is not None:
            hits[key] = cached
            hit_source[key] = "cache"
            continue
        if store is not None:
            stored = store.get(key)
            if stored is not None:
                hits[key] = stored
                hit_source[key] = "store"
                result_cache.store(key, stored)  # warm the local cache
                continue
        pending[key] = cell

    computed, attempts, errors = _execute_cells(pending, jobs, retries)

    results: Dict[str, Dict[str, SimulationStats]] = {b: {} for b in names}
    for key, grid_slots in slots.items():
        bench, _ = grid_slots[0]
        telemetry = None
        if key in hits:
            stats, wall, worker, status, error = (
                hits[key], 0.0, hit_source[key], "ok", "")
            n_attempts = 0
        elif key in computed:
            stats, wall, worker, telemetry = computed[key]
            status, error = "ok", ""
            n_attempts = attempts[key]
            result_cache.store(key, stats)
            if store is not None:
                store.put(key, stats, meta={
                    "benchmark": bench, "policy": grid_slots[0][1],
                    "seed": seed, "instructions": instructions,
                    "warmup": warmup, "config_hash": cfg_hash,
                    "wall_time": wall, "worker": worker,
                    "attempts": n_attempts, "label": manifest.label,
                }, telemetry=telemetry)
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
    ``jobs=1`` — same cache dedup, retry, and manifest behavior,
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
