"""Per-rule fixture tests: each family must catch its seeded violation.

Every test builds a tiny package tree under ``tmp_path``, seeds one
violation, and asserts the rule fires on it — and a corrected twin stays
clean. The root package is deliberately *not* named ``repro`` to prove
the rules key on module-name suffixes, not the installed package.
"""

from textwrap import dedent

from repro.analysis.engine import discover, run_rules
from repro.analysis.rules import get_rules
from repro.analysis.rules.concurrency import (
    AsyncBlockingCallRule,
    FireAndForgetTaskRule,
    PoolChildInitRule,
    RouteConformanceRule,
    UnawaitedCoroutineRule,
)
from repro.analysis.rules.config_coherence import (
    ConfigUnknownFieldRule,
    ConfigUnusedFieldRule,
)
from repro.analysis.rules.determinism import (
    SetIterationRule,
    UnseededRngRule,
    WallClockRule,
)
from repro.analysis.rules.hotpath import AttrOutsideInitRule, MissingSlotsRule
from repro.analysis.rules.layering import LayeringRule
from repro.analysis.rules.stats_parity import StatsParityRule
from repro.analysis.rules.telemetry_imports import TelemetryNoopImportRule

PKG = {
    "pkg/__init__.py": "",
    "pkg/utils/__init__.py": "",
    "pkg/simulator/__init__.py": "",
    "pkg/workloads/__init__.py": "",
    "pkg/frontend/__init__.py": "",
    "pkg/branch/__init__.py": "",
    "pkg/core/__init__.py": "",
    "pkg/experiments/__init__.py": "",
    "pkg/reporting/__init__.py": "",
}


def lint(tmp_path, files, rules):
    merged = dict(PKG)
    merged.update(files)
    for rel, source in merged.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(source))
    project = discover([tmp_path], root=tmp_path)
    return run_rules(project, rules)


def rules_fired(findings):
    return sorted({f.rule for f in findings})


class TestDeterminism:
    def test_wallclock_in_stat_unit(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/simulator/clock.py": "import time\nt = time.time()\n",
        }, [WallClockRule()])
        assert rules_fired(findings) == ["determinism-wallclock"]

    def test_wallclock_bare_reference(self, tmp_path):
        # default_factory=time.time never *calls* at def time but is
        # exactly as nondeterministic — must still fire
        findings = lint(tmp_path, {
            "pkg/simulator/rec.py": """\
                import time
                from dataclasses import dataclass, field

                @dataclass
                class R:
                    started: float = field(default_factory=time.time)
            """,
        }, [WallClockRule()])
        assert rules_fired(findings) == ["determinism-wallclock"]

    def test_wallclock_fine_outside_stat_units(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/reporting/timer.py": "import time\nt = time.time()\n",
        }, [WallClockRule()])
        assert findings == []

    def test_unseeded_rng(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/core/jitter.py": """\
                import random
                x = random.random()
                r = random.Random()
            """,
        }, [UnseededRngRule()])
        assert len(findings) == 2
        assert rules_fired(findings) == ["determinism-unseeded-rng"]

    def test_seeded_rng_is_fine(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/core/jitter.py": """\
                import random
                r = random.Random(1234)
                x = r.random()
            """,
        }, [UnseededRngRule()])
        assert findings == []

    def test_set_iteration(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/frontend/scan.py": """\
                def f(lines):
                    live = set(lines)
                    total = 0
                    for line in live:
                        total += line
                    return total
            """,
        }, [SetIterationRule()])
        assert rules_fired(findings) == ["determinism-set-iteration"]

    def test_sorted_set_iteration_is_fine(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/frontend/scan.py": """\
                def f(lines):
                    live = set(lines)
                    return [line for line in sorted(live)]
            """,
        }, [SetIterationRule()])
        assert findings == []

    def test_set_attr_iteration(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/branch/track.py": """\
                class Tracker:
                    def __init__(self):
                        self.seen = set()

                    def dump(self):
                        return [x for x in self.seen]
            """,
        }, [SetIterationRule()])
        assert rules_fired(findings) == ["determinism-set-iteration"]


class TestLayering:
    def test_workloads_must_not_import_simulator(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/simulator/runner.py": "X = 1\n",
            "pkg/workloads/gen.py": "from pkg.simulator.runner import X\n",
        }, [LayeringRule()])
        assert rules_fired(findings) == ["layering-forbidden-import"]
        assert findings[0].path == "pkg/workloads/gen.py"

    def test_relative_import_resolved(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/experiments/driver.py": "Y = 2\n",
            "pkg/frontend/fetch.py": "from ..experiments.driver import Y\n",
        }, [LayeringRule()])
        assert rules_fired(findings) == ["layering-forbidden-import"]
        assert "experiments" in findings[0].message

    def test_root_facade_import_flagged(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/core/engine.py": "import pkg\n",
        }, [LayeringRule()])
        assert rules_fired(findings) == ["layering-forbidden-import"]
        assert "facade" in findings[0].message

    def test_allowed_edges_are_clean(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/utils/helpers.py": "Z = 3\n",
            "pkg/workloads/gen.py": "from pkg.utils.helpers import Z\n",
            "pkg/frontend/fetch.py": "from pkg.workloads.gen import Z\n",
            "pkg/experiments/driver.py": "from pkg.frontend.fetch import Z\n",
        }, [LayeringRule()])
        assert findings == []

    def test_service_may_import_simulator_and_telemetry(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/simulator/runner.py": "X = 1\n",
            "pkg/telemetry/__init__.py": "",
            "pkg/telemetry/handle.py": "H = 2\n",
            "pkg/service/server.py": (
                "from pkg.simulator.runner import X\n"
                "from pkg.telemetry.handle import H\n"
            ),
        }, [LayeringRule()])
        assert findings == []

    def test_model_units_must_not_import_service(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/store.py": "S = 1\n",
            "pkg/core/engine.py": "from pkg.service.store import S\n",
            "pkg/frontend/fetch.py": "from pkg.service.store import S\n",
            "pkg/memory/__init__.py": "",
            "pkg/memory/cache.py": "from pkg.service.store import S\n",
        }, [LayeringRule()])
        assert rules_fired(findings) == ["layering-forbidden-import"]
        offenders = sorted(f.path for f in findings)
        assert offenders == ["pkg/core/engine.py", "pkg/frontend/fetch.py",
                             "pkg/memory/cache.py"]
        assert all("service" in f.message for f in findings)

    def test_simulator_must_not_import_service(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/store.py": "S = 1\n",
            "pkg/simulator/runner.py": "from pkg.service.store import S\n",
        }, [LayeringRule()])
        assert rules_fired(findings) == ["layering-forbidden-import"]
        assert findings[0].path == "pkg/simulator/runner.py"

    def test_sweeps_may_import_service_and_simulator(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/client.py": "C = 1\n",
            "pkg/simulator/runner.py": "X = 2\n",
            "pkg/sweeps/__init__.py": "",
            "pkg/sweeps/executor.py": (
                "from pkg.service.client import C\n"
                "from pkg.simulator.runner import X\n"
            ),
        }, [LayeringRule()])
        assert findings == []

    def test_simulator_must_not_import_sweeps(self, tmp_path):
        # the model/simulator must never know it is being swept
        findings = lint(tmp_path, {
            "pkg/sweeps/__init__.py": "",
            "pkg/sweeps/plan.py": "P = 1\n",
            "pkg/simulator/runner.py": "from pkg.sweeps.plan import P\n",
        }, [LayeringRule()])
        assert rules_fired(findings) == ["layering-forbidden-import"]
        assert findings[0].path == "pkg/simulator/runner.py"
        assert "sweeps" in findings[0].message

    def test_core_must_not_import_dash(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/dash/__init__.py": "",
            "pkg/dash/page.py": "H = 1\n",
            "pkg/core/engine.py": "from pkg.dash.page import H\n",
        }, [LayeringRule()])
        assert rules_fired(findings) == ["layering-forbidden-import"]
        assert findings[0].path == "pkg/core/engine.py"

    def test_service_may_import_dash_not_vice_versa(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/dash/__init__.py": "",
            "pkg/dash/state.py": "B = 1\n",
            "pkg/service/__init__.py": "",
            "pkg/service/server.py": "from pkg.dash.state import B\n",
        }, [LayeringRule()])
        assert findings == []
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/server.py": "S = 1\n",
            "pkg/dash/__init__.py": "",
            "pkg/dash/state.py": "from pkg.service.server import S\n",
        }, [LayeringRule()])
        assert rules_fired(findings) == ["layering-forbidden-import"]
        assert findings[0].path == "pkg/dash/state.py"

    def test_experiments_may_import_sweeps(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/sweeps/__init__.py": "",
            "pkg/sweeps/executor.py": "R = 1\n",
            "pkg/experiments/driver.py": "from pkg.sweeps.executor import R\n",
        }, [LayeringRule()])
        assert findings == []

    def test_traces_may_import_workloads_and_service(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/store.py": "S = 1\n",
            "pkg/workloads/layout.py": "L = 1\n",
            "pkg/traces/__init__.py": "",
            "pkg/traces/ingest.py": (
                "from pkg.service.store import S\n"
                "from pkg.workloads.layout import L\n"
                "from pkg.utils import thing\n"
            ),
        }, [LayeringRule()])
        assert findings == []

    def test_traces_must_not_import_simulator(self, tmp_path):
        # ingestion builds workloads; it must not reach up into the
        # machinery that will eventually run them
        findings = lint(tmp_path, {
            "pkg/simulator/runner.py": "X = 1\n",
            "pkg/traces/__init__.py": "",
            "pkg/traces/synth.py": "from pkg.simulator.runner import X\n",
        }, [LayeringRule()])
        assert rules_fired(findings) == ["layering-forbidden-import"]
        assert findings[0].path == "pkg/traces/synth.py"
        assert "simulator" in findings[0].message

    def test_model_and_simulator_must_not_import_traces(self, tmp_path):
        # the inverse edge: ingested benchmarks reach the simulator only
        # through the workloads.profiles provider hook (a dotted-name
        # import at lookup time), never a static import
        units = ("core", "frontend", "simulator", "workloads")
        files = {"pkg/traces/__init__.py": "",
                 "pkg/traces/registry.py": "T = 1\n"}
        files.update(("pkg/%s/mod.py" % unit,
                      "from pkg.traces.registry import T\n")
                     for unit in units)
        findings = lint(tmp_path, files, [LayeringRule()])
        assert rules_fired(findings) == ["layering-forbidden-import"]
        assert (sorted(f.path for f in findings)
                == sorted("pkg/%s/mod.py" % unit for unit in units))


class TestHotPath:
    def test_per_event_class_without_slots(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/branch/btb.py": """\
                class Entry:
                    def __init__(self, tag):
                        self.tag = tag

                class Table:
                    def __init__(self):
                        self.rows = {}

                    def insert(self, tag):
                        self.rows[tag] = Entry(tag)
            """,
        }, [MissingSlotsRule()])
        assert rules_fired(findings) == ["hotpath-missing-slots"]
        assert "Entry" in findings[0].message

    def test_slotted_class_is_fine(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/branch/btb.py": """\
                class Entry:
                    __slots__ = ("tag",)

                    def __init__(self, tag):
                        self.tag = tag

                class Table:
                    def insert(self, tag):
                        return Entry(tag)
            """,
        }, [MissingSlotsRule()])
        assert findings == []

    def test_slotted_dataclass_idiom_is_fine(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/branch/btb.py": """\
                from dataclasses import dataclass
                from pkg.utils import SLOTTED

                @dataclass(**SLOTTED)
                class Entry:
                    tag: int

                class Table:
                    def insert(self, tag):
                        return Entry(tag)
            """,
        }, [MissingSlotsRule()])
        assert findings == []

    def test_manager_built_in_init_is_exempt(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/branch/btb.py": """\
                class Predictor:
                    def __init__(self):
                        self.table = {}

                class Machine:
                    def __init__(self):
                        self.pred = Predictor()
            """,
        }, [MissingSlotsRule()])
        assert findings == []

    def test_attr_outside_init(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/memory/block.py": """\
                class Block:
                    __slots__ = ("line", "state")

                    def __init__(self, line):
                        self.line = line
                        self.state = 0

                    def touch(self):
                        self.extra_note = 1
            """,
            "pkg/memory/__init__.py": "",
        }, [AttrOutsideInitRule()])
        assert rules_fired(findings) == ["hotpath-attr-outside-init"]
        assert "extra_note" in findings[0].message


class TestStatsParity:
    MACHINE_OK = """\
        class Machine:
            def run(self, n):
                st = self.stats
                st.cycles += 1
                st.instructions += 1

            def _fast_forward(self, k):
                self.stats.cycles += k
    """

    STATS = """\
        class SimulationStats:
            cycles: int = 0
            instructions: int = 0
    """

    def test_counter_missing_from_fast_forward(self, tmp_path):
        # the acceptance-criteria scenario: a counter added to the
        # per-cycle path but omitted from _fast_forward must be caught
        findings = lint(tmp_path, {
            "pkg/simulator/stats.py": """\
                class SimulationStats:
                    cycles: int = 0
                    instructions: int = 0
                    lost_cycles: int = 0
            """,
            "pkg/simulator/machine.py": """\
                class Machine:
                    def run(self, n):
                        st = self.stats
                        st.cycles += 1
                        st.instructions += 1
                        st.lost_cycles += 1

                    def _fast_forward(self, k):
                        self.stats.cycles += k
            """,
        }, [StatsParityRule()])
        assert rules_fired(findings) == ["stats-parity-fast-forward"]
        assert "lost_cycles" in findings[0].message
        assert "_fast_forward" in findings[0].message

    def test_stale_batch_update(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/simulator/stats.py": """\
                class SimulationStats:
                    cycles: int = 0
                    instructions: int = 0
                    old_counter: int = 0
            """,
            "pkg/simulator/machine.py": """\
                class Machine:
                    def run(self, n):
                        st = self.stats
                        st.cycles += 1

                    def _fast_forward(self, k):
                        self.stats.cycles += k
                        self.stats.old_counter += k
            """,
        }, [StatsParityRule()])
        assert rules_fired(findings) == ["stats-parity-fast-forward"]
        assert "old_counter" in findings[0].message
        assert "stale" in findings[0].message

    def test_balanced_machine_is_clean(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/simulator/stats.py": self.STATS,
            "pkg/simulator/machine.py": self.MACHINE_OK,
        }, [StatsParityRule()])
        assert findings == []

    def test_event_gated_counters_exempt(self, tmp_path):
        # instructions is event-gated: mutated per-cycle, absent from
        # _fast_forward, and that is correct
        findings = lint(tmp_path, {
            "pkg/simulator/stats.py": self.STATS,
            "pkg/simulator/machine.py": self.MACHINE_OK,
        }, [StatsParityRule()])
        assert all("instructions" not in f.message for f in findings)
        assert findings == []

    def test_wrong_path_blocks_is_not_event_gated(self, tmp_path):
        # Machine counts wrong-path blocks in _iag_fill, off the
        # per-cycle list; moving that count onto the per-cycle path
        # without batching it must be caught
        findings = lint(tmp_path, {
            "pkg/simulator/stats.py": """\
                class SimulationStats:
                    cycles: int = 0
                    wrong_path_blocks: int = 0
            """,
            "pkg/simulator/machine.py": """\
                class Machine:
                    def run(self, n):
                        st = self.stats
                        st.cycles += 1
                        st.wrong_path_blocks += 1

                    def _fast_forward(self, k):
                        self.stats.cycles += k
            """,
        }, [StatsParityRule()])
        assert rules_fired(findings) == ["stats-parity-fast-forward"]
        assert "wrong_path_blocks" in findings[0].message


class TestConfigCoherence:
    CONFIG = """\
        class MachineConfig:
            fetch_width: int = 4
            decode_width: int = 4
            dead_knob: int = 0
    """

    def test_unknown_attribute_read(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/simulator/config.py": self.CONFIG,
            "pkg/experiments/sweep.py": """\
                from pkg.simulator.config import MachineConfig

                def f(cfg: MachineConfig):
                    return cfg.fetch_witdh
            """,
        }, [ConfigUnknownFieldRule()])
        assert rules_fired(findings) == ["config-unknown-field"]
        assert "fetch_witdh" in findings[0].message

    def test_unknown_constructor_keyword(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/simulator/config.py": self.CONFIG,
            "pkg/experiments/sweep.py": """\
                from pkg.simulator.config import MachineConfig

                cfg = MachineConfig(fetch_wdith=8)
            """,
        }, [ConfigUnknownFieldRule()])
        assert rules_fired(findings) == ["config-unknown-field"]
        assert "fetch_wdith" in findings[0].message

    def test_tracked_through_self_attribute(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/simulator/config.py": self.CONFIG,
            "pkg/simulator/machine.py": """\
                from pkg.simulator.config import MachineConfig

                class Machine:
                    def __init__(self, cfg: MachineConfig):
                        self.cfg = cfg

                    def step(self):
                        c = self.cfg
                        return c.decode_widht
            """,
        }, [ConfigUnknownFieldRule()])
        assert rules_fired(findings) == ["config-unknown-field"]
        assert "decode_widht" in findings[0].message

    def test_unused_field_is_warning(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/simulator/config.py": self.CONFIG,
            "pkg/simulator/machine.py": """\
                from pkg.simulator.config import MachineConfig

                def f(cfg: MachineConfig):
                    return cfg.fetch_width + cfg.decode_width
            """,
        }, [ConfigUnusedFieldRule()])
        assert rules_fired(findings) == ["config-unused-field"]
        assert len(findings) == 1
        assert "dead_knob" in findings[0].message
        assert findings[0].severity == "warning"

    def test_all_fields_used_is_clean(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/simulator/config.py": self.CONFIG,
            "pkg/simulator/machine.py": """\
                from pkg.simulator.config import MachineConfig

                def f(cfg: MachineConfig):
                    return cfg.fetch_width + cfg.decode_width + cfg.dead_knob
            """,
        }, [ConfigUnusedFieldRule()])
        assert findings == []


class TestTelemetryImports:
    def test_live_import_in_hot_module_fires(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/core/engine.py":
                "from pkg.telemetry.recorder import TraceRecorder\n",
        }, [TelemetryNoopImportRule()])
        assert rules_fired(findings) == ["telemetry-noop-import"]
        assert "telemetry.handle" in findings[0].message

    def test_package_facade_in_hot_module_fires(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/memory/__init__.py": "",
            "pkg/memory/cache.py":
                "from pkg.telemetry import TelemetrySession\n",
        }, [TelemetryNoopImportRule()])
        assert rules_fired(findings) == ["telemetry-noop-import"]
        assert "facade" in findings[0].message

    def test_machine_module_counts_as_hot(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/simulator/machine.py":
                "import pkg.telemetry.session\n",
        }, [TelemetryNoopImportRule()])
        assert rules_fired(findings) == ["telemetry-noop-import"]

    def test_handle_import_is_clean(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/frontend/pq.py":
                "from pkg.telemetry.handle import NULL_RECORDER\n",
            "pkg/simulator/machine.py":
                "from pkg.telemetry.handle import NULL_RECORDER\n",
        }, [TelemetryNoopImportRule()])
        assert findings == []

    def test_drivers_are_unconstrained(self, tmp_path):
        # runner/experiments attach sessions — the live side is theirs
        findings = lint(tmp_path, {
            "pkg/simulator/runner.py":
                "from pkg.telemetry import TelemetrySession\n",
            "pkg/experiments/driver.py":
                "from pkg.telemetry.diff import diff_paths\n",
        }, [TelemetryNoopImportRule()])
        assert findings == []

    def test_layering_allows_the_handle_edge(self, tmp_path):
        # the DAG row that makes the handle importable everywhere
        findings = lint(tmp_path, {
            "pkg/memory/__init__.py": "",
            "pkg/memory/cache.py":
                "from pkg.telemetry.handle import NULL_RECORDER\n",
            "pkg/core/engine.py":
                "from pkg.telemetry.handle import NULL_RECORDER\n",
        }, [LayeringRule()])
        assert findings == []


class TestWholeRegistry:
    def test_all_rules_run_together(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/simulator/clock.py": "import time\nt = time.time()\n",
            "pkg/workloads/gen.py": "import pkg.simulator.clock\n",
        }, get_rules())
        assert "determinism-wallclock" in rules_fired(findings)
        assert "layering-forbidden-import" in rules_fired(findings)

    def test_telemetry_rule_in_registry(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/core/engine.py":
                "from pkg.telemetry.session import TelemetrySession\n",
        }, get_rules())
        assert "telemetry-noop-import" in rules_fired(findings)


class TestAsyncBlockingCall:
    def test_direct_blocking_call_fires(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                import time

                async def handler():
                    time.sleep(1)
            """,
        }, [AsyncBlockingCallRule()])
        assert rules_fired(findings) == ["async-blocking-call"]
        assert "time.sleep" in findings[0].message

    def test_transitive_through_sync_helper(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                import sqlite3

                def helper():
                    sqlite3.connect(":memory:")

                async def handler():
                    helper()
            """,
        }, [AsyncBlockingCallRule()])
        assert rules_fired(findings) == ["async-blocking-call"]
        assert "via helper" in findings[0].message

    def test_transitive_across_modules(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/store.py": """\
                import sqlite3

                class Store:
                    def __init__(self):
                        self._db = sqlite3.connect(":memory:")

                    def info(self):
                        return self._db.execute("select 1")
            """,
            "pkg/service/srv.py": """\
                from pkg.service.store import Store

                class Server:
                    def __init__(self, store: Store):
                        self.store = store

                    async def handler(self):
                        return self.store.info()
            """,
        }, [AsyncBlockingCallRule()])
        assert rules_fired(findings) == ["async-blocking-call"]
        assert "Store.info" in findings[0].message

    def test_executor_offload_is_clean(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                import asyncio
                import time

                async def handler():
                    loop = asyncio.get_event_loop()
                    await loop.run_in_executor(None, lambda: time.sleep(1))
                    await loop.run_in_executor(None, time.sleep, 1)
            """,
        }, [AsyncBlockingCallRule()])
        assert findings == []

    def test_helper_recursion_does_not_loop(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                def ping(n):
                    if n:
                        pong(n - 1)

                def pong(n):
                    ping(n)

                async def handler():
                    ping(3)
            """,
        }, [AsyncBlockingCallRule()])
        assert findings == []

    def test_executor_shutdown_wait_false_is_clean(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                from concurrent.futures import ProcessPoolExecutor

                class Server:
                    def __init__(self):
                        self.pool: ProcessPoolExecutor = None

                    async def fast(self):
                        self.pool.shutdown(wait=False)

                    async def slow(self):
                        self.pool.shutdown(wait=True)
            """,
        }, [AsyncBlockingCallRule()])
        assert rules_fired(findings) == ["async-blocking-call"]
        assert len(findings) == 1
        assert "shutdown" in findings[0].message

    def test_suppressed(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                import time

                async def handler():
                    time.sleep(1)  # repro: lint-ignore[async-blocking-call]
            """,
        }, [AsyncBlockingCallRule()])
        assert findings == []


class TestUnawaitedCoroutine:
    def test_discarded_project_coroutine_fires(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                async def job():
                    pass

                async def handler():
                    job()
            """,
        }, [UnawaitedCoroutineRule()])
        assert rules_fired(findings) == ["unawaited-coroutine"]
        assert "'job'" in findings[0].message

    def test_discarded_stdlib_coroutine_fires(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                import asyncio

                async def handler():
                    asyncio.sleep(1)
            """,
        }, [UnawaitedCoroutineRule()])
        assert rules_fired(findings) == ["unawaited-coroutine"]

    def test_awaited_and_scheduled_are_clean(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                import asyncio

                async def job():
                    pass

                async def handler():
                    await job()
                    task = asyncio.ensure_future(job())
                    return task
            """,
        }, [UnawaitedCoroutineRule()])
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                async def job():
                    pass

                async def handler():
                    job()  # repro: lint-ignore[unawaited-coroutine]
            """,
        }, [UnawaitedCoroutineRule()])
        assert findings == []


class TestFireAndForgetTask:
    def test_discarded_task_fires(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                import asyncio

                async def job():
                    pass

                def kick():
                    asyncio.ensure_future(job())

                def kick2(loop):
                    loop.create_task(job())
            """,
        }, [FireAndForgetTaskRule()])
        assert len(findings) == 2
        assert rules_fired(findings) == ["fire-and-forget-task"]

    def test_retained_task_is_clean(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                import asyncio

                async def job():
                    pass

                def kick(tracked):
                    handle = asyncio.ensure_future(job())
                    tracked.add(asyncio.create_task(job()))
                    return handle
            """,
        }, [FireAndForgetTaskRule()])
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                import asyncio

                async def job():
                    pass

                def kick():
                    # repro: lint-ignore[fire-and-forget-task]
                    asyncio.ensure_future(job())
            """,
        }, [FireAndForgetTaskRule()])
        assert findings == []


class TestPoolChildInit:
    def test_missing_initializer_fires(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def make():
                    return ProcessPoolExecutor(max_workers=2)
            """,
        }, [PoolChildInitRule()])
        assert rules_fired(findings) == ["pool-child-init"]

    def test_wrong_initializer_fires(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def make(other):
                    return ProcessPoolExecutor(initializer=other)
            """,
        }, [PoolChildInitRule()])
        assert rules_fired(findings) == ["pool-child-init"]
        assert "expected pool_child_init" in findings[0].message

    def test_correct_initializer_is_clean(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                import concurrent.futures
                from concurrent.futures import ProcessPoolExecutor

                from pkg.utils import pool_child_init

                def make():
                    return ProcessPoolExecutor(
                        max_workers=2, initializer=pool_child_init)

                def make2(kw):
                    # splatted kwargs may carry it; cannot tell -> silent
                    return concurrent.futures.ProcessPoolExecutor(**kw)
            """,
        }, [PoolChildInitRule()])
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/a.py": """\
                from concurrent.futures import ProcessPoolExecutor

                def make():
                    # repro: lint-ignore[pool-child-init]
                    return ProcessPoolExecutor(max_workers=2)
            """,
        }, [PoolChildInitRule()])
        assert findings == []


_ROUTE_SERVER = """\
    from typing import Dict, Optional, Tuple

    class SimulationServer:
        def _route(self, method: str, path: str,
                   body: Optional[Dict[str, object]]
                   ) -> Tuple[int, Dict[str, object]]:
            parts = [p for p in path.split("/") if p]
            if method == "GET" and parts == ["healthz"]:
                return 200, {"ok": True}
            if method == "POST" and parts == ["jobs"]:
                return 201, {"id": "j1"}
            if len(parts) == 2 and parts[0] == "jobs":
                if method == "GET":
                    return 200, {"job": parts[1]}
            return 404, {"error": "no route"}
"""

_ROUTE_CLIENT = """\
    class ServiceClient:
        def _checked(self, method, path, body=None, ok=(200,)):
            pass

        def health(self):
            return self._checked("GET", "/healthz")

        def submit(self):
            return self._checked("POST", "/jobs", {})

        def job(self, job_id):
            return self._checked("GET", "/jobs/%s" % job_id)
"""


class TestRouteConformance:
    def test_matching_protocol_is_clean(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/server.py": _ROUTE_SERVER,
            "pkg/service/client.py": _ROUTE_CLIENT,
        }, [RouteConformanceRule()])
        assert findings == []

    def test_client_side_rename_fires(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/server.py": _ROUTE_SERVER,
            "pkg/service/client.py":
                _ROUTE_CLIENT.replace('"/healthz"', '"/health"'),
        }, [RouteConformanceRule()])
        fired = rules_fired(findings)
        assert fired == ["route-conformance"]
        # both directions: the send has no handler, the handler no sender
        messages = " | ".join(f.message for f in findings)
        assert "GET /health " in messages or "GET /health but" in messages
        assert "GET /healthz" in messages

    def test_server_side_rename_fires(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/server.py":
                _ROUTE_SERVER.replace('["healthz"]', '["health-z"]'),
            "pkg/service/client.py": _ROUTE_CLIENT,
        }, [RouteConformanceRule()])
        assert rules_fired(findings) == ["route-conformance"]

    def test_dead_route_fires(self, tmp_path):
        extra = (
            '            if method == "POST" and parts == ["reset"]:\n'
            '                return 200, {}\n'
        )
        source = _ROUTE_SERVER.replace(
            '            return 404, {"error": "no route"}\n',
            extra + '            return 404, {"error": "no route"}\n')
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/server.py": source,
            "pkg/service/client.py": _ROUTE_CLIENT,
        }, [RouteConformanceRule()])
        assert rules_fired(findings) == ["route-conformance"]
        assert "POST /reset" in findings[0].message
        assert "no client-side sender" in findings[0].message

    def test_wildcard_send_matches_literal_segment(self, tmp_path):
        # "/jobs/%s" must match the parts[0] == "jobs", len == 2 handler
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/server.py": _ROUTE_SERVER,
            "pkg/service/client.py": _ROUTE_CLIENT,
        }, [RouteConformanceRule()])
        assert findings == []

    def test_query_on_existing_route_matches(self, tmp_path):
        # the query string is not a path segment, and every % conversion
        # (here %.3f) is a wildcard
        client = (_ROUTE_CLIENT
                  .replace('"/healthz"', '"/healthz?x=1"')
                  .replace('"/jobs/%s" % job_id',
                           '"/jobs/%s?wait=%.3f" % (job_id, 1.0)'))
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/server.py": _ROUTE_SERVER,
            "pkg/service/client.py": client,
        }, [RouteConformanceRule()])
        assert findings == []

    def test_query_on_missing_route_fires(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/server.py": _ROUTE_SERVER,
            "pkg/service/client.py":
                _ROUTE_CLIENT.replace('"/healthz"', '"/health?x=1"'),
        }, [RouteConformanceRule()])
        assert rules_fired(findings) == ["route-conformance"]
        messages = " | ".join(f.message for f in findings)
        assert "client sends GET /health but" in messages

    def test_no_service_modules_is_silent(self, tmp_path):
        findings = lint(tmp_path, {
            "pkg/core/a.py": "x = 1\n",
        }, [RouteConformanceRule()])
        assert findings == []

    def test_suppressed_dead_route(self, tmp_path):
        extra = (
            '            if method == "POST" and parts == ["reset"]:\n'
            '                # repro: lint-ignore[route-conformance]\n'
            '                return 200, {}\n'
        )
        source = _ROUTE_SERVER.replace(
            '            return 404, {"error": "no route"}\n',
            extra + '            return 404, {"error": "no route"}\n')
        findings = lint(tmp_path, {
            "pkg/service/__init__.py": "",
            "pkg/service/server.py": source,
            "pkg/service/client.py": _ROUTE_CLIENT,
        }, [RouteConformanceRule()])
        assert findings == []


class TestConcurrencyRegistry:
    def test_concurrency_rules_registered(self):
        names = {rule.name for rule in get_rules()}
        assert {"async-blocking-call", "unawaited-coroutine",
                "fire-and-forget-task", "pool-child-init",
                "route-conformance"} <= names
