"""Bundled traces as first-class benchmarks: registry, e2e, integration.

The expensive end-to-end cells use the smallest budgets that still
exercise the replayer-driven frontend; the full stats of one bundled
trace cell are pinned in ``tests/test_golden_stats.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.simulator.runner import get_layout, run_benchmark
from repro.traces.registry import DATA_DIR, trace_benchmark_names
from repro.traces.synthesize import TraceProfile
from repro.workloads.profiles import (
    BENCHMARK_NAMES,
    external_benchmark,
    get_profile,
    known_benchmark_names,
)

BUNDLED = sorted(trace_benchmark_names())

pytestmark = pytest.mark.skipif(
    not BUNDLED, reason="bundled traces unavailable in this checkout")


class TestRegistry:
    def test_bundled_names_are_known_benchmarks(self):
        known = known_benchmark_names()
        for name in BUNDLED:
            assert name in known
        # and the synthetic catalog is untouched
        assert known[:len(BENCHMARK_NAMES)] == BENCHMARK_NAMES

    def test_profiles_pin_the_manifest_digests(self):
        manifest = json.loads(
            (Path(DATA_DIR) / "bundled.json").read_text())
        for name in BUNDLED:
            profile = get_profile(name)
            assert isinstance(profile, TraceProfile)
            assert profile.trace_digest == manifest[name]["digest"]
            assert profile.trace_events == manifest[name]["events"]

    def test_synthetic_names_never_hit_the_provider(self):
        assert external_benchmark("tatp") is None

    def test_unknown_name_lists_trace_benchmarks(self):
        with pytest.raises(KeyError) as exc:
            get_profile("no-such-benchmark")
        for name in BUNDLED:
            assert name in str(exc.value)

    def test_layout_is_seed_invariant(self):
        name = BUNDLED[0]
        a = get_layout(name, seed=1)
        b = get_layout(name, seed=2)
        assert a is b  # one observed binary, whatever the machine seed

    def test_walker_replays_the_synthesised_stream(self):
        name = BUNDLED[0]
        ext = external_benchmark(name)
        layout = ext.layout_builder(1)
        walker = ext.walker_factory(layout, 1)
        ev = walker.next_event()
        assert layout.blocks[ev.block.bid] is ev.block


class TestEndToEnd:
    BUDGET = dict(instructions=8_000, warmup=2_000, seed=1,
                  use_cache=False)

    def test_run_produces_misses_worth_prefetching(self):
        # a bundled trace that fits L1-I entirely would make every PDIP
        # study over it vacuous; guard the footprint stays meaningful
        stats = run_benchmark(BUNDLED[0], "baseline", **self.BUDGET)
        assert stats.l1i_mpki > 1.0


class TestIntegration:
    def test_sweep_spec_accepts_trace_benchmarks(self):
        from repro.sweeps import compile_spec, parse_spec

        spec = parse_spec({
            "axes": {"benchmark": [BUNDLED[0], "noop"],
                     "policy": ["baseline"]},
            "defaults": {"instructions": 10_000, "warmup": 2_000},
        })
        plan = compile_spec(spec)
        assert {c.payload()["benchmark"] for c in plan.cells} == \
            {BUNDLED[0], "noop"}

    def test_sweep_spec_all_stays_synthetic(self):
        # "all" deliberately excludes trace benchmarks so existing plan
        # digests stay stable as traces come and go
        from repro.sweeps import parse_spec

        spec = parse_spec({"axes": {"benchmark": "all",
                                    "policy": ["baseline"]}})
        assert spec.benchmarks == BENCHMARK_NAMES

    def test_sweep_spec_still_rejects_unknown(self):
        from repro.sweeps import SweepSpecError, parse_spec

        with pytest.raises(SweepSpecError):
            parse_spec({"axes": {"benchmark": ["definitely-not-real"],
                                 "policy": ["baseline"]}})

    def test_service_submission_accepts_trace_benchmarks(self):
        from repro.service.jobs import normalize_submission

        payload = normalize_submission({"benchmark": BUNDLED[0],
                                        "policy": "baseline"})
        assert payload["benchmark"] == BUNDLED[0]
        with pytest.raises(ValueError):
            normalize_submission({"benchmark": "definitely-not-real",
                                  "policy": "baseline"})

    def test_cli_exposes_trace_benchmarks(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", BUNDLED[0], "baseline", "--no-cache"])
        assert args.benchmark == BUNDLED[0]

    def test_bench_cells_cover_trace_benchmarks(self):
        from tests.test_golden_stats import GOLDEN_WORK

        trace_cells = [row for row in GOLDEN_WORK
                       if row[0].startswith("trace-")]
        assert trace_cells, "GOLDEN_WORK lost its ingested-trace cells"
