"""Cell runner: simulate benchmark x policy cells and compare IPC.

Layouts are generated once per (benchmark, seed) and shared across
policies (the same binary runs under every configuration, like the
paper's experiments); each policy still gets its own machine, caches,
and predictors. :func:`get_layout` memoizes the generated layouts —
simulation never mutates a layout, so sharing one object is safe.

Grids are embarrassingly parallel: every cell is an independent
simulation. :func:`execute_cells` runs a grid's store misses across a
:class:`~concurrent.futures.ProcessPoolExecutor`, retrying transient
worker failures with bounded backoff. It is the local pool of the sweep
executor (:mod:`repro.sweeps.executor`), the one grid path: figures,
``repro sweep run`` and ``repro suite`` all resolve their grids there
(the latter two through :func:`repro.experiments.common.collect`).

The worker count resolves explicit argument > ``REPRO_JOBS`` env >
serial (see :func:`resolve_jobs`).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Dict, Optional, Tuple

from repro.simulator.config import MachineConfig
from repro.simulator.manifest import config_hash
from repro.simulator.policies import build_machine, get_policy
from repro.simulator.stats import SimulationStats
from repro.utils import pool_child_init
from repro.workloads.generator import generate_layout
from repro.workloads.layout import CodeLayout
from repro.workloads.profiles import external_benchmark, get_profile

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
    # looked up in this module's globals at call time, so a wrapper set
    # on ``runner.run_benchmark`` before the pool forks reaches workers
    stats = run_benchmark(benchmark, spec, instructions=instructions,
                          warmup=warmup, config=config, seed=seed,
                          use_cache=False, telemetry=session)
    # repro: lint-ignore[determinism-wallclock]
    wall = time.perf_counter() - t0
    summary = session.summary() if session is not None else None
    return stats, wall, os.getpid(), summary


def execute_cells(pending: Dict[str, tuple], jobs: int, retries: int,
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


def speedup(stats: SimulationStats, baseline: SimulationStats) -> float:
    """IPC speedup of ``stats`` over ``baseline`` (1.0 = no change)."""
    if baseline.ipc == 0:
        raise ValueError("baseline IPC is zero")
    return stats.ipc / baseline.ipc

