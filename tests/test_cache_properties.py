"""Property-based tests (hypothesis) for the result store.

Key stability: the run key is a pure function of its inputs, and every
field that determines a run's outcome (benchmark, policy, instruction
budget, warmup, seed, machine config) perturbs it. Round-trip:
``ResultStore.put``/``get`` preserves ``SimulationStats`` exactly.
"""

import dataclasses
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import cache as result_cache
from repro.simulator.cache import ResultStore
from repro.simulator.config import MachineConfig
from repro.simulator.policies import POLICIES, get_policy
from repro.simulator.stats import SimulationStats
from repro.workloads.profiles import BENCHMARK_NAMES

benchmarks = st.sampled_from(sorted(BENCHMARK_NAMES))
policies = st.sampled_from(sorted(POLICIES))
budgets = st.integers(min_value=1, max_value=10**8)
warmups = st.integers(min_value=0, max_value=10**7)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
counters = st.integers(min_value=0, max_value=2**40)
metric_floats = st.floats(allow_nan=False, allow_infinity=False,
                          width=32)


class TestRunKeyProperties:
    @given(benchmarks, policies, budgets, warmups, seeds)
    def test_same_inputs_same_key(self, bench, policy, instr, warm, seed):
        spec = get_policy(policy)
        a = result_cache.run_key(bench, spec, instr, warm, seed, None)
        b = result_cache.run_key(bench, spec, instr, warm, seed, None)
        assert a == b

    @given(benchmarks, policies, budgets, warmups, seeds,
           st.integers(min_value=1, max_value=10**6))
    def test_instructions_perturb_key(self, bench, policy, instr, warm,
                                      seed, delta):
        spec = get_policy(policy)
        a = result_cache.run_key(bench, spec, instr, warm, seed, None)
        b = result_cache.run_key(bench, spec, instr + delta, warm, seed,
                                 None)
        assert a != b

    @given(benchmarks, policies, budgets, warmups, seeds,
           st.integers(min_value=1, max_value=10**6))
    def test_warmup_perturbs_key(self, bench, policy, instr, warm, seed,
                                 delta):
        spec = get_policy(policy)
        a = result_cache.run_key(bench, spec, instr, warm, seed, None)
        b = result_cache.run_key(bench, spec, instr, warm + delta, seed,
                                 None)
        assert a != b

    @given(benchmarks, policies, budgets, warmups, seeds,
           st.integers(min_value=1, max_value=10**6))
    def test_seed_perturbs_key(self, bench, policy, instr, warm, seed,
                               delta):
        spec = get_policy(policy)
        a = result_cache.run_key(bench, spec, instr, warm, seed, None)
        b = result_cache.run_key(bench, spec, instr, warm, seed + delta,
                                 None)
        assert a != b

    @given(benchmarks, st.permutations(sorted(POLICIES))
           .map(lambda p: p[:2]), budgets, warmups, seeds)
    def test_policy_perturbs_key(self, bench, two_policies, instr, warm,
                                 seed):
        first, second = two_policies
        a = result_cache.run_key(bench, get_policy(first), instr, warm,
                                 seed, None)
        b = result_cache.run_key(bench, get_policy(second), instr, warm,
                                 seed, None)
        assert a != b

    @given(st.permutations(sorted(BENCHMARK_NAMES)).map(lambda b: b[:2]),
           policies, budgets, warmups, seeds)
    def test_benchmark_perturbs_key(self, two_benches, policy, instr,
                                    warm, seed):
        first, second = two_benches
        spec = get_policy(policy)
        a = result_cache.run_key(first, spec, instr, warm, seed, None)
        b = result_cache.run_key(second, spec, instr, warm, seed, None)
        assert a != b

    @given(benchmarks, policies, budgets, warmups, seeds,
           st.sampled_from([1024, 2048, 4096, 65536]))
    def test_config_perturbs_key(self, bench, policy, instr, warm, seed,
                                 btb_entries):
        spec = get_policy(policy)
        a = result_cache.run_key(bench, spec, instr, warm, seed, None)
        b = result_cache.run_key(bench, spec, instr, warm, seed,
                                 MachineConfig(btb_entries=btb_entries))
        assert (a != b) == (btb_entries != MachineConfig().btb_entries)


_COUNTER_FIELDS = [f.name for f in dataclasses.fields(SimulationStats)
                   if f.name != "extra"]


class TestStoreLoadRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(st.dictionaries(st.sampled_from(_COUNTER_FIELDS), counters,
                           min_size=1),
           st.dictionaries(st.text(st.characters(min_codepoint=32,
                                                 max_codepoint=126),
                                   min_size=1, max_size=12),
                           metric_floats, max_size=4))
    def test_roundtrip_preserves_stats_exactly(self, fields, extra):
        stats = SimulationStats()
        for name, value in fields.items():
            setattr(stats, name, value)
        stats.extra = dict(extra)
        with tempfile.TemporaryDirectory() as tmp, ResultStore(tmp) as store:
            store.put("prop-key", stats)
            loaded = store.get("prop-key")
        assert loaded is not None
        assert loaded.to_dict() == stats.to_dict()
        for name in _COUNTER_FIELDS:
            assert getattr(loaded, name) == getattr(stats, name)
        assert loaded.extra == stats.extra
        assert loaded.ipc == stats.ipc
