"""Per-benchmark workload profiles (the reproduction's stand-in for Table 2).

Each paper benchmark gets a :class:`WorkloadProfile` whose parameters are
tuned so the baseline simulator lands in the same qualitative regime the
paper reports: relative L1-I MPKI ordering (Fig. 9), FEC-line fraction
(Fig. 4), and back-end pressure (which governs how much front-end stall
translates into IPC loss, and the L2 data contention EMISSARY causes).

The generator builds a tiered call DAG (see
:mod:`repro.workloads.generator`); the key levers are:

* ``call_sites_mean`` × ``call_depth`` — per-request instruction footprint
  (more, deeper calls ⇒ more fresh cache lines per kilo-instruction);
* ``handler_zipf_alpha`` / ``callee_zipf_alpha`` — reuse skew (flatter ⇒
  bigger live set ⇒ more capacity misses);
* ``leaf_call_frac`` / ``num_leaves`` — the hot shared-library fraction
  (these calls are the cache *hits*);
* ``loop_back_prob`` / ``loop_taken_bias`` — hit-heavy loop instructions
  that dilute MPKI;
* ``bias_mix`` — conditional-branch predictability, which sets the
  resteer rate that PDIP's trigger mechanism feeds on.

Footprints are scaled to the reproduction's instruction budgets: the paper
runs 100M instructions against multi-MB footprints; we run O(100K)
instructions against 0.2-1 MB footprints, preserving the
footprint >> L1-I >> useful-locality regime.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple


@dataclass(frozen=True)
class WorkloadProfile:
    """Knobs for the synthetic program generator and dynamic walker."""

    name: str
    description: str = ""

    # --- static code shape ------------------------------------------------
    num_functions: int = 900
    num_handlers: int = 48            # top-level request handlers (tier 0)
    num_leaves: int = 60              # shared leaf/library functions (hot code)
    mean_blocks_per_function: int = 10
    mean_instructions_per_block: int = 6
    max_instructions_per_block: int = 24

    # --- call graph shape ----------------------------------------------------
    call_depth: int = 7               # mid-call-graph tiers below the handlers
    tier_growth: float = 1.6          # tier d+1 is ~1.6x wider than tier d
    call_sites_mean: float = 1.8      # call sites per non-leaf function (cap 3)
    indirect_call_frac: float = 0.15  # fraction of call sites that are indirect
    leaf_call_frac: float = 0.20      # fraction of call sites targeting leaves
    indirect_call_fanout: int = 4     # callees per indirect call site

    # --- non-call terminator mix (probabilities for interior blocks) ---------
    p_cond: float = 0.45
    p_indirect: float = 0.02
    p_direct: float = 0.07
    # remainder is FALLTHROUGH

    # --- dynamic branch behaviour -------------------------------------------
    #: fraction of conditional branch *sites* that are (highly biased,
    #: moderately biased, unbiased).
    bias_mix: Tuple[float, float, float] = (0.90, 0.08, 0.02)
    loop_back_prob: float = 0.12      # fraction of COND sites that are loop back-edges
    loop_taken_bias: float = 0.70     # loop continue probability (geometric trips)
    indirect_fanout: int = 6          # targets per indirect jump site
    #: probability an indirect execution deviates from its cyclic pattern
    #: (sets the asymptotic ITTAGE mispredict rate)
    indirect_noise: float = 0.08
    #: fraction of indirect sites that are monomorphic (one dominant
    #: target) — most call sites in real code are
    indirect_mono_frac: float = 0.50

    # --- invocation skew -----------------------------------------------------
    handler_zipf_alpha: float = 0.40  # lower alpha = flatter = bigger live set
    callee_zipf_alpha: float = 0.40

    # --- back-end / data-side model -----------------------------------------
    backend_stall_prob: float = 0.10  # P(back end retires nothing this cycle)
    data_access_prob: float = 0.05    # P(retired instr issues an L2 data access)
    data_lines: int = 2500            # distinct data lines behind those accesses
    data_zipf_alpha: float = 0.60

    def scaled(self, **overrides) -> "WorkloadProfile":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


def _profile(name: str, description: str, **kw) -> WorkloadProfile:
    return WorkloadProfile(name=name, description=description, **kw)


#: Benchmark order used by every figure (matches the paper's x axes).
BENCHMARK_NAMES = (
    "cassandra",
    "tomcat",
    "kafka",
    "xalan",
    "finagle-http",
    "dotty",
    "tpcc",
    "ycsb",
    "twitter",
    "voter",
    "smallbank",
    "tatp",
    "sibench",
    "noop",
    "verilator",
    "speedometer2.0",
)


PROFILES: Dict[str, WorkloadProfile] = {
    "cassandra": _profile(
        "cassandra", "DaCapo NoSQL store: huge flat footprint, heavy misses",
        num_functions=1700, num_handlers=96, num_leaves=70,
        call_depth=8, call_sites_mean=2.0, tier_growth=1.25,
        indirect_call_frac=0.45, indirect_call_fanout=8,
        leaf_call_frac=0.06, loop_back_prob=0.05,
        handler_zipf_alpha=0.10, callee_zipf_alpha=0.10,
        backend_stall_prob=0.12, data_access_prob=0.05, data_lines=2200,
    ),
    "tomcat": _profile(
        "tomcat", "DaCapo servlet container: large footprint, deep stacks",
        num_functions=1400, num_handlers=72, num_leaves=80,
        call_depth=8, call_sites_mean=1.9, tier_growth=1.25,
        indirect_call_frac=0.35, indirect_call_fanout=6,
        leaf_call_frac=0.10, loop_back_prob=0.08,
        handler_zipf_alpha=0.20, callee_zipf_alpha=0.20,
        backend_stall_prob=0.11,
    ),
    "kafka": _profile(
        "kafka", "DaCapo message broker: moderate footprint, hotter core loop",
        num_functions=800, num_handlers=32, num_leaves=90,
        call_depth=6, call_sites_mean=1.6, tier_growth=1.3,
        indirect_call_frac=0.20, leaf_call_frac=0.30,
        handler_zipf_alpha=0.55, callee_zipf_alpha=0.50,
        loop_back_prob=0.16, backend_stall_prob=0.14,
    ),
    "xalan": _profile(
        "xalan", "DaCapo XSLT processor: large recursive-transform footprint",
        num_functions=1300, num_handlers=64, num_leaves=70,
        call_depth=8, call_sites_mean=1.9, tier_growth=1.25,
        indirect_call_frac=0.32, indirect_call_fanout=6,
        leaf_call_frac=0.12, loop_back_prob=0.08,
        handler_zipf_alpha=0.22, callee_zipf_alpha=0.22,
        backend_stall_prob=0.10,
    ),
    "finagle-http": _profile(
        "finagle-http", "Renaissance RPC server: medium-large footprint",
        num_functions=1100, num_handlers=64, num_leaves=90,
        call_depth=7, call_sites_mean=1.8, tier_growth=1.3,
        indirect_call_frac=0.30, leaf_call_frac=0.15,
        handler_zipf_alpha=0.30, callee_zipf_alpha=0.30,
        loop_back_prob=0.10, backend_stall_prob=0.12,
    ),
    "dotty": _profile(
        "dotty", "Renaissance Scala compiler: large footprint, high L2 data pressure",
        num_functions=1250, num_handlers=72, num_leaves=80,
        call_depth=8, call_sites_mean=1.85, tier_growth=1.25,
        indirect_call_frac=0.32, indirect_call_fanout=6,
        leaf_call_frac=0.12, loop_back_prob=0.09,
        handler_zipf_alpha=0.25, callee_zipf_alpha=0.25,
        backend_stall_prob=0.13,
        data_access_prob=0.12, data_lines=5000, data_zipf_alpha=0.35,
    ),
    "tpcc": _profile(
        "tpcc", "OLTP-Bench TPC-C on PostgreSQL: transaction mix dispatch",
        num_functions=1000, num_handlers=48, num_leaves=90,
        call_depth=7, call_sites_mean=1.75, tier_growth=1.3,
        indirect_call_frac=0.28, leaf_call_frac=0.16,
        handler_zipf_alpha=0.32, callee_zipf_alpha=0.32,
        loop_back_prob=0.10, backend_stall_prob=0.13,
        data_access_prob=0.08, data_lines=3200,
    ),
    "ycsb": _profile(
        "ycsb", "OLTP-Bench YCSB: key-value transaction mix",
        num_functions=950, num_handlers=40, num_leaves=90,
        call_depth=7, call_sites_mean=1.7, tier_growth=1.3,
        indirect_call_frac=0.25, leaf_call_frac=0.18,
        handler_zipf_alpha=0.36, callee_zipf_alpha=0.36,
        loop_back_prob=0.11, backend_stall_prob=0.12,
        data_access_prob=0.07, data_lines=2800,
    ),
    "twitter": _profile(
        "twitter", "OLTP-Bench twitter workload: skewed social-graph queries",
        num_functions=900, num_handlers=40, num_leaves=90,
        call_depth=7, call_sites_mean=1.7, tier_growth=1.3,
        indirect_call_frac=0.24, leaf_call_frac=0.20,
        handler_zipf_alpha=0.38, callee_zipf_alpha=0.38,
        loop_back_prob=0.11, backend_stall_prob=0.12,
        data_access_prob=0.07, data_lines=2600,
    ),
    "voter": _profile(
        "voter", "OLTP-Bench voter: short repetitive transactions",
        num_functions=920, num_handlers=36, num_leaves=85,
        call_depth=7, call_sites_mean=1.7, tier_growth=1.3,
        indirect_call_frac=0.24, leaf_call_frac=0.19,
        handler_zipf_alpha=0.37, callee_zipf_alpha=0.37,
        loop_back_prob=0.11, backend_stall_prob=0.11,
        data_access_prob=0.06, data_lines=2400,
    ),
    "smallbank": _profile(
        "smallbank", "OLTP-Bench smallbank: banking transactions, L2 data pressure",
        num_functions=850, num_handlers=36, num_leaves=85,
        call_depth=7, call_sites_mean=1.65, tier_growth=1.3,
        indirect_call_frac=0.22, leaf_call_frac=0.22,
        handler_zipf_alpha=0.42, callee_zipf_alpha=0.42,
        loop_back_prob=0.12, backend_stall_prob=0.12,
        data_access_prob=0.11, data_lines=4600, data_zipf_alpha=0.35,
    ),
    "tatp": _profile(
        "tatp", "OLTP-Bench TATP: telecom transactions, L2 data pressure",
        num_functions=820, num_handlers=32, num_leaves=85,
        call_depth=7, call_sites_mean=1.6, tier_growth=1.3,
        indirect_call_frac=0.22, leaf_call_frac=0.24,
        handler_zipf_alpha=0.45, callee_zipf_alpha=0.45,
        loop_back_prob=0.12, backend_stall_prob=0.12,
        data_access_prob=0.11, data_lines=4400, data_zipf_alpha=0.35,
    ),
    "sibench": _profile(
        "sibench", "OLTP-Bench sibench: snapshot-isolation microbenchmark",
        num_functions=760, num_handlers=28, num_leaves=80,
        call_depth=6, call_sites_mean=1.6, tier_growth=1.3,
        indirect_call_frac=0.20, leaf_call_frac=0.26,
        handler_zipf_alpha=0.50, callee_zipf_alpha=0.48,
        loop_back_prob=0.13, backend_stall_prob=0.11,
        data_access_prob=0.06, data_lines=2200,
    ),
    "noop": _profile(
        "noop", "OLTP-Bench noop: protocol/parse path only, smaller live set",
        num_functions=720, num_handlers=24, num_leaves=80,
        call_depth=6, call_sites_mean=1.55, tier_growth=1.3,
        indirect_call_frac=0.18, leaf_call_frac=0.28,
        handler_zipf_alpha=0.55, callee_zipf_alpha=0.52,
        loop_back_prob=0.13, backend_stall_prob=0.10,
        data_access_prob=0.04, data_lines=1800,
    ),
    "verilator": _profile(
        "verilator", "Chipyard RTL sim: BOLTed binary, very long basic blocks",
        num_functions=1500, num_handlers=88, num_leaves=40,
        mean_blocks_per_function=7, mean_instructions_per_block=18,
        max_instructions_per_block=64,
        call_depth=8, call_sites_mean=2.0, tier_growth=1.25,
        indirect_call_frac=0.40, indirect_call_fanout=8,
        leaf_call_frac=0.05, loop_back_prob=0.04,
        handler_zipf_alpha=0.10, callee_zipf_alpha=0.10,
        p_cond=0.50, backend_stall_prob=0.08,
        data_access_prob=0.03, data_lines=1500,
    ),
    "speedometer2.0": _profile(
        "speedometer2.0", "BrowserBench JS: hot JITted kernels, smaller live set",
        num_functions=700, num_handlers=24, num_leaves=90,
        call_depth=6, call_sites_mean=1.5, tier_growth=1.3,
        indirect_call_frac=0.18, leaf_call_frac=0.32,
        handler_zipf_alpha=0.60, callee_zipf_alpha=0.55,
        loop_back_prob=0.17, backend_stall_prob=0.15,
        data_access_prob=0.05, data_lines=2000,
    ),
}


# --------------------------------------------------------------------------
# External benchmark registry
#
# Trace-driven workloads (and any future non-generator workload source)
# plug in here: a provider registers a profile plus factories that build
# the `CodeLayout` and the walker for a benchmark name, and from then on
# the name works everywhere a synthetic profile name does — `repro run`,
# suites, sweeps, the service.
#
# Providers are loaded lazily by dotted module name the first time an
# unknown benchmark is looked up.  The string import keeps the layering
# DAG honest: `workloads` never *statically* imports the trace subsystem
# (which sits above it and pulls in the service store); the provider
# module imports us and calls :func:`register_external_benchmark` at
# import time — the classic entry-point inversion.


@dataclass(frozen=True)
class ExternalBenchmark:
    """A benchmark backed by something other than the synthetic generator.

    ``layout_builder(seed)`` returns the `CodeLayout`; ``walker_factory``
    ``(layout, seed)`` returns an object with the `PathWalker` surface
    (``next_event`` / ``snapshot_stack`` / ``.layout``) that drives the
    machine.  Both must be importable from a fresh process (pool children
    re-resolve benchmarks by name) and deterministic for a given seed.
    """

    profile: WorkloadProfile
    layout_builder: Callable[[int], Any]
    walker_factory: Callable[[Any, int], Any]


_EXTERNAL: Dict[str, ExternalBenchmark] = {}

#: Provider modules imported (once) on the first unknown-name lookup.
#: Each must call :func:`register_external_benchmark` at import time.
EXTERNAL_PROVIDERS: Tuple[str, ...] = ("repro.traces.registry",)

_providers_loaded = False


def register_external_benchmark(
    name: str,
    profile: WorkloadProfile,
    layout_builder: Callable[[int], Any],
    walker_factory: Callable[[Any, int], Any],
    replace_existing: bool = False,
) -> None:
    """Register *name* as an externally provided benchmark.

    Synthetic profile names are reserved; re-registering an external
    name requires ``replace_existing`` so accidental collisions fail
    loudly instead of last-writer-wins.
    """
    if name in PROFILES:
        raise ValueError(
            "cannot register external benchmark %r: shadows a synthetic profile"
            % (name,)
        )
    if name in _EXTERNAL and not replace_existing:
        raise ValueError("external benchmark %r already registered" % (name,))
    if profile.name != name:
        raise ValueError(
            "profile.name %r does not match benchmark name %r"
            % (profile.name, name)
        )
    _EXTERNAL[name] = ExternalBenchmark(
        profile=profile,
        layout_builder=layout_builder,
        walker_factory=walker_factory,
    )


def _load_providers() -> None:
    global _providers_loaded
    if _providers_loaded:
        return
    for module in EXTERNAL_PROVIDERS:
        importlib.import_module(module)
    # set last: a provider whose import failed (a refused store) is
    # imported again by the next lookup
    _providers_loaded = True


def external_benchmark(name: str) -> Optional[ExternalBenchmark]:
    """The :class:`ExternalBenchmark` for *name*, or ``None`` if synthetic/unknown."""
    if name in PROFILES:
        return None
    if name not in _EXTERNAL:
        _load_providers()
    return _EXTERNAL.get(name)


def external_benchmark_names() -> Tuple[str, ...]:
    """Sorted names of all registered external benchmarks."""
    _load_providers()
    return tuple(sorted(_EXTERNAL))


def known_benchmark_names() -> Tuple[str, ...]:
    """Every runnable benchmark name: synthetic profiles then external."""
    return BENCHMARK_NAMES + external_benchmark_names()


def get_profile(name: str) -> WorkloadProfile:
    """Look up a benchmark profile by paper name or registered trace name.

    Raises ``KeyError`` with the list of valid names on a miss.
    """
    try:
        return PROFILES[name]
    except KeyError:
        pass
    ext = external_benchmark(name)
    if ext is not None:
        return ext.profile
    raise KeyError(
        "unknown benchmark %r; valid: %s"
        % (name, ", ".join(known_benchmark_names()))
    )
