"""Tests for the event-horizon fast path (DESIGN.md §10).

The contract under test: cycle skipping must be **observably invisible**
— every counter in :class:`SimulationStats` identical to per-cycle
stepping — while actually skipping cycles, and probes must keep their
every-cycle view unless they opt into the coarse mode.
"""

from __future__ import annotations

import pytest

from repro.simulator.machine import Machine
from repro.simulator.policies import build_machine, get_policy
from repro.simulator.runner import get_layout
from repro.workloads.generator import generate_layout
from repro.workloads.profiles import WorkloadProfile, get_profile

SMALL = WorkloadProfile(name="horizon-test", num_functions=50,
                        num_handlers=6, num_leaves=8, call_depth=3)


def _machine(policy="baseline", bench=None, seed=3):
    if bench is None:
        profile, layout_seed = SMALL, 2
    else:
        profile, layout_seed = get_profile(bench), 1
    layout = generate_layout(profile, seed=layout_seed)
    return build_machine(layout, profile, get_policy(policy), seed=seed)


class TestEquivalence:
    """Skipping on vs off must be bit-identical, not just close."""

    def _pair(self, policy, bench=None, instructions=4000, warmup=800):
        fast = _machine(policy, bench)
        assert fast.event_horizon  # on by default
        stats_fast = fast.run(instructions, warmup=warmup)

        slow = _machine(policy, bench)
        slow.event_horizon = False
        stats_slow = slow.run(instructions, warmup=warmup)
        return fast, stats_fast, slow, stats_slow

    def test_identical_stats_baseline(self):
        fast, sf, slow, ss = self._pair("baseline")
        assert sf.to_dict() == ss.to_dict()
        assert fast.cycle == slow.cycle

    def test_identical_stats_pdip(self):
        fast, sf, slow, ss = self._pair("pdip_44", bench="tatp")
        assert sf.to_dict() == ss.to_dict()
        assert fast.cycle == slow.cycle

    def test_fast_path_actually_skips(self):
        fast, _, slow, _ = self._pair("baseline")
        assert fast.fast_forwarded_cycles > 0
        assert fast.fast_forwards > 0
        assert slow.fast_forwarded_cycles == 0
        # every skipped cycle is a per-cycle step the slow run performed
        assert fast.cycle == slow.cycle

    def test_skip_accounting_consistent(self):
        fast, _, _, _ = self._pair("baseline")
        # each jump skipped at least one cycle
        assert fast.fast_forwarded_cycles >= fast.fast_forwards


class TestProbeInteraction:
    def test_probe_disables_skipping(self):
        m = _machine()
        seen = []
        m.probe = lambda machine: seen.append(machine.cycle)
        m.run(2000, warmup=0)
        assert m.fast_forwarded_cycles == 0
        # the probe saw every cycle exactly once, in order
        assert seen == list(range(m.cycle))

    def test_probe_stats_unchanged(self):
        a = _machine()
        stats_a = a.run(2000, warmup=0)
        b = _machine()
        b.probe = lambda machine: None
        stats_b = b.run(2000, warmup=0)
        assert stats_a.to_dict() == stats_b.to_dict()

    def test_probe_coarse_keeps_skipping(self):
        m = _machine()
        observations = []
        m.probe = lambda machine: observations.append(machine.cycle)
        m.probe_coarse = True
        stats = m.run(2000, warmup=0)

        reference = _machine()
        stats_ref = reference.run(2000, warmup=0)
        # coarse mode must not perturb simulation results …
        assert stats.to_dict() == stats_ref.to_dict()
        # … while still fast-forwarding,
        assert m.fast_forwarded_cycles > 0
        # with one observation per stepped cycle or jump (strictly
        # increasing cycle numbers, fewer than total cycles)
        assert observations == sorted(observations)
        assert len(observations) == m.cycle - m.fast_forwarded_cycles \
            + m.fast_forwards

    def test_step_equals_inlined_loop(self):
        """Public step() must stay in lockstep with run()'s inlined copy."""
        layout = generate_layout(SMALL, seed=2)
        a = Machine(layout, SMALL, seed=3)
        a.event_horizon = False
        stats_a = a.run(1500, warmup=0)

        b = Machine(layout, SMALL, seed=3)
        while b.backend.retired_instructions < 1500:
            b.step()
        assert a.cycle == b.cycle
        assert stats_a.cycles == a.cycle
        assert (b.backend.retired_instructions
                == a.backend.retired_instructions)


class _ZeroWalkTLB:
    """An iTLB that always hits: ``translate`` charges no walk."""

    def translate(self, line: int) -> int:
        return 0


class TestReadyHitBatching:
    """``_iag_fill`` batches ready L1-I hits instead of calling
    ``fetch_instruction`` per line. An iTLB sends every line through the
    full call, so a zero-walk iTLB runs the unbatched rule at the same
    timing: the two runs must agree on every counter."""

    @pytest.mark.parametrize("bench,policy", [("cassandra", "pdip_44"),
                                              ("tatp", "baseline"),
                                              ("kafka", "eip_46")])
    def test_zero_walk_itlb_equals_batched_hits(self, bench, policy):
        layout = get_layout(bench, seed=3)
        runs = []
        for itlb in (None, _ZeroWalkTLB()):
            m = build_machine(layout, get_profile(bench), get_policy(policy),
                              seed=3)
            assert m.hierarchy.itlb is None
            m.hierarchy.itlb = itlb
            stats = m.run(20_000, warmup=4_000)
            h = m.hierarchy
            runs.append((stats.to_dict(), h.l1i.accesses, h.l1i._clock,
                         h.l1i_demand_accesses, m.cycle))
        batched, per_line = runs
        assert batched == per_line
