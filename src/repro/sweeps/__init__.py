"""Declarative sweep subsystem: spec → plan → incremental execution.

The grid an experiment runs is *data*, not code: a TOML/JSON spec
(:mod:`repro.sweeps.spec`) compiles to a deterministic plan of
digest-keyed cells (:mod:`repro.sweeps.plan`), and the executor
(:mod:`repro.sweeps.executor`) resolves the plan against the result
store so only dirty cells simulate — locally or on a running
``repro serve``, with live progress on the server dashboard.

Typical use::

    from repro.sweeps import compile_spec, load_spec, run_sweep

    plan = compile_spec(load_spec("examples/sweeps/btb_sweep.toml"))
    report = run_sweep(plan, store=my_store, jobs=8)
    grid = report.results(config_label="btb_4k")   # {bench: {policy: stats}}
"""

from repro.sweeps.executor import (
    DEFAULT_MAX_IN_FLIGHT,
    SweepReport,
    load_state,
    run_sweep,
    sweep_state_path,
)
from repro.sweeps.plan import PlanCell, SweepPlan, compile_spec
from repro.sweeps.spec import (
    AXIS_NAMES,
    ConfigVariant,
    SweepSpec,
    SweepSpecError,
    load_spec,
    parse_spec,
)

__all__ = [
    "AXIS_NAMES",
    "ConfigVariant",
    "DEFAULT_MAX_IN_FLIGHT",
    "PlanCell",
    "SweepPlan",
    "SweepReport",
    "SweepSpec",
    "SweepSpecError",
    "compile_spec",
    "load_spec",
    "load_state",
    "parse_spec",
    "run_sweep",
    "sweep_state_path",
]
