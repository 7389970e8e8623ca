"""Session tests: attach/detach wiring, harvest, and the zero-overhead
invariant — telemetry-off runs stay bit-identical to the seed goldens,
and telemetry-*on* runs produce the same stats too (the recorder only
observes, never perturbs)."""

import pytest

from repro.simulator.runner import run_benchmark
from repro.telemetry import TelemetrySession
from repro.telemetry.handle import NULL_RECORDER
from repro.telemetry.session import HARVEST_SOURCES

from tests.test_golden_stats import GOLDEN


def _machine():
    from repro.simulator.policies import build_machine, get_policy
    from repro.simulator.runner import get_layout
    from repro.workloads.profiles import get_profile

    layout = get_layout("noop", seed=1)
    return build_machine(layout, get_profile("noop"), get_policy("pdip_44"),
                         seed=1)


class TestAttachDetach:
    def test_attach_swaps_all_handles(self):
        machine = _machine()
        session = TelemetrySession(capacity=64)
        session.attach(machine)
        for bearer in (machine, machine.hierarchy, machine.pq,
                       machine.prefetcher):
            assert bearer.tel is session.recorder
        session.detach(machine)
        for bearer in (machine, machine.hierarchy, machine.pq,
                       machine.prefetcher):
            assert bearer.tel is NULL_RECORDER

    def test_attach_is_idempotent(self):
        machine = _machine()
        session = TelemetrySession(capacity=64)
        session.attach(machine).attach(machine)
        assert len(session._attached) == len(
            {id(b) for b in session._attached})
        session.detach(machine)
        assert machine.tel is NULL_RECORDER

    def test_fresh_machine_starts_null(self):
        machine = _machine()
        for bearer in (machine, machine.hierarchy, machine.pq,
                       machine.prefetcher):
            assert bearer.tel is NULL_RECORDER

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_CAPACITY", "128")
        monkeypatch.setenv("REPRO_TELEMETRY_SAMPLE", "4")
        session = TelemetrySession.from_env()
        assert session.recorder.capacity == 128
        assert session.recorder.sample_every == 4
        # an explicit value (repro trace run --capacity/--sample-every)
        # beats its variable; the other still comes from the env
        session = TelemetrySession.from_env(capacity=256)
        assert session.recorder.capacity == 256
        assert session.recorder.sample_every == 4
        session = TelemetrySession.from_env(sample_every=2)
        assert session.recorder.capacity == 128
        assert session.recorder.sample_every == 2


class TestHarvest:
    def test_harvest_populates_metrics(self):
        session = TelemetrySession()
        run_benchmark("noop", "pdip_44", instructions=5000, warmup=1000,
                      seed=1, use_cache=False, telemetry=session)
        snapshot = session.registry.snapshot()
        # pipeline counters harvested under stable dotted names
        for name in ("pq.requests", "l1i.demand_accesses", "sim.cycles",
                     "pdip.candidate_events", "prefetch.issued"):
            assert name in snapshot, name
        assert snapshot["l1i.demand_accesses"] > 0
        # per-kind event counts mirrored as counters
        for kind, count in session.recorder.kind_counts.items():
            assert snapshot["events." + kind] == count

    def test_harvest_sources_resolve_on_a_real_machine(self):
        # every row in the harvest table must point at a live attribute
        # on the default machine build — a renamed counter otherwise
        # silently vanishes from all future summaries
        from repro.telemetry.session import _resolve

        machine = _machine()
        machine.run(2000, warmup=500)
        for name, path in HARVEST_SOURCES:
            value = _resolve(machine, path)
            assert isinstance(value, (int, float)), (name, path)

    def test_summary_shape(self):
        session = TelemetrySession(capacity=32)
        run_benchmark("noop", "pdip_44", instructions=2000, warmup=500,
                      seed=1, use_cache=False, telemetry=session)
        summary = session.summary()
        assert set(summary) == {"recorder", "metrics"}
        assert summary["recorder"]["capacity"] == 32
        assert summary["recorder"]["events_offered"] > 0


class TestBitIdenticalStats:
    @pytest.mark.parametrize(
        "bench,policy,seed,instructions,warmup,want", GOLDEN[:1],
        ids=["%s-%s-s%d" % (b, p, s) for b, p, s, _, _, _ in GOLDEN[:1]])
    def test_telemetry_off_matches_seed_golden(self, bench, policy, seed,
                                               instructions, warmup, want):
        # the telemetry integration must not move a single counter on
        # the default (handle-only) path
        stats = run_benchmark(bench, policy, instructions=instructions,
                              warmup=warmup, seed=seed, use_cache=False)
        assert stats.to_dict() == want

    @pytest.mark.parametrize(
        "bench,policy,seed,instructions,warmup,want", GOLDEN[:1],
        ids=["%s-%s-s%d" % (b, p, s) for b, p, s, _, _, _ in GOLDEN[:1]])
    def test_telemetry_on_matches_seed_golden(self, bench, policy, seed,
                                              instructions, warmup, want):
        # ... and attaching the live recorder must only observe: same
        # golden stats, bit for bit, with the full trace captured
        session = TelemetrySession()
        stats = run_benchmark(bench, policy, instructions=instructions,
                              warmup=warmup, seed=seed, use_cache=False,
                              telemetry=session)
        assert stats.to_dict() == want
        assert session.recorder.seq > 0

    def test_sampling_and_capacity_do_not_perturb(self):
        base = run_benchmark("noop", "pdip_44", instructions=5000,
                             warmup=1000, seed=1, use_cache=False)
        session = TelemetrySession(capacity=16, sample_every=7)
        got = run_benchmark("noop", "pdip_44", instructions=5000,
                            warmup=1000, seed=1, use_cache=False,
                            telemetry=session)
        assert got.to_dict() == base.to_dict()
        assert len(session.recorder) <= 16

    def test_telemetry_is_horizon_aware(self):
        # the probe contract is auto-disable; the telemetry contract is
        # the opposite: cycle skipping stays ON, and each jump leaves a
        # batched fast_forward event in the trace
        machine = _machine()
        session = TelemetrySession()
        session.attach(machine)
        machine.run(5000, warmup=1000)
        session.detach(machine)
        assert machine.fast_forwards > 0
        jumps = session.recorder.events("fast_forward")
        assert len(jumps) == machine.fast_forwards
        assert (sum(e[3]["cycles"] for e in jumps)
                == machine.fast_forwarded_cycles)

    def test_trace_is_deterministic_across_runs(self):
        events = []
        for _ in range(2):
            session = TelemetrySession()
            run_benchmark("noop", "pdip_44", instructions=2000, warmup=500,
                          seed=1, use_cache=False, telemetry=session)
            events.append(session.recorder.events())
        assert events[0] == events[1]

    def test_telemetry_run_bypasses_cache_read(self, tmp_path, monkeypatch):
        # a cached result has no events to replay; a telemetry run must
        # simulate fresh (and may still share the cache for writes)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_benchmark("noop", "pdip_44", instructions=2000, warmup=500,
                      seed=1)  # populate the cache
        session = TelemetrySession()
        run_benchmark("noop", "pdip_44", instructions=2000, warmup=500,
                      seed=1, telemetry=session)
        assert session.recorder.seq > 0
