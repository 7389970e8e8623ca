"""Golden-stats regression anchors.

(benchmark, policy, seed) cells with their **full**
:class:`SimulationStats` dict pinned. The first three were captured from
the pre-optimization per-cycle implementation; the rest cover every
other prefetcher family (next-line, RDIP, analytical EIP, path-trigger
PDIP), the EMISSARY replacement policy, FEC-Ideal, and one bundled
ingested trace driving the trace-replayer front end. ``GOLDEN_CONFIG``
adds cells run under a non-default :class:`MachineConfig`: the iTLB
cell is the only one whose FDIP probe takes the per-line
``fetch_instruction`` path (with MSHR-stall deferrals) instead of the
batched L1-I hit loop. Any change to
simulation semantics — including a bug in the event-horizon fast path,
which is ON by default in these runs — trips these comparisons
field-by-field.

``GOLDEN_WORK`` pins the modelled work of eleven more cells: short and
long budgets, every prefetcher family, the probe-attached path (which
turns cycle skipping off) and two bundled traces. Each row holds the
simulated cycles and IPC these cells were first recorded at, before the
event-horizon fast path, and the digest of the full stats. A faster
core must model the same cycles; how fast it runs is the perf gate's
concern (``scripts/perf_gate.py``).

If a *deliberate* modelling change invalidates them, regenerate with::

    PYTHONPATH=src python -c "
    from repro.simulator.runner import run_benchmark
    s = run_benchmark('tatp', 'pdip_44', instructions=30000, warmup=6000,
                      seed=1, use_cache=False)
    print(s.to_dict())"

passing ``config=`` for a ``GOLDEN_CONFIG`` cell, and with
:func:`run_work` and ``canonical_digest(stats.to_dict())`` for a
``GOLDEN_WORK`` row.
"""

from __future__ import annotations

import pytest

from repro.memory.hierarchy import HierarchyConfig
from repro.simulator.config import MachineConfig
from repro.simulator.policies import build_machine, get_policy
from repro.simulator.probe import TimelineProbe
from repro.simulator.runner import get_layout, run_benchmark
from repro.utils import canonical_digest
from repro.workloads.profiles import get_profile

GOLDEN = [
    ("tatp", "pdip_44", 1, 30000, 6000, {
        'cycles': 30346,
        'decode_starvation_cycles': 7147,
        'extra': {},
        'fec_covered_events': 0,
        'fec_distinct_lines': 51,
        'fec_events': 41,
        'fec_high_cost_backend_events': 26,
        'fec_high_cost_events': 53,
        'fec_starvation_cycles': 4966,
        'instructions': 30000,
        'l1i_accesses': 22470,
        'l1i_misses': 210,
        'l2_data_misses': 1973,
        'l2_inst_misses': 135,
        'l3_misses': 1985,
        'pdip_inserts': 27,
        'pdip_triggers_last_taken': 0,
        'pdip_triggers_mispredict': 8144,
        'prefetch_late': 2,
        'prefetch_useful': 4,
        'prefetch_useless': 1,
        'prefetches_dropped': 0,
        'prefetches_issued': 7,
        'resteers': 418,
        'resteers_btb_miss': 132,
        'resteers_cond': 150,
        'resteers_indirect': 136,
        'resteers_return': 0,
        'retired_distinct_lines': 163,
        'slots_backend_bound': 222694,
        'slots_bad_speculation': 24908,
        'slots_frontend_bound': 86257,
        'slots_retiring': 30293,
        'slots_total': 364152,
        'wrong_path_blocks': 13373,
    }),
    ("dotty", "baseline", 2, 30000, 6000, {
        'cycles': 35453,
        'decode_starvation_cycles': 10567,
        'extra': {},
        'fec_covered_events': 0,
        'fec_distinct_lines': 94,
        'fec_events': 84,
        'fec_high_cost_backend_events': 63,
        'fec_high_cost_events': 114,
        'fec_starvation_cycles': 8244,
        'instructions': 30009,
        'l1i_accesses': 21934,
        'l1i_misses': 729,
        'l2_data_misses': 2463,
        'l2_inst_misses': 431,
        'l3_misses': 2424,
        'pdip_inserts': 0,
        'pdip_triggers_last_taken': 0,
        'pdip_triggers_mispredict': 0,
        'prefetch_late': 0,
        'prefetch_useful': 0,
        'prefetch_useless': 0,
        'prefetches_dropped': 0,
        'prefetches_issued': 0,
        'resteers': 453,
        'resteers_btb_miss': 203,
        'resteers_cond': 185,
        'resteers_indirect': 65,
        'resteers_return': 0,
        'retired_distinct_lines': 325,
        'slots_backend_bound': 245832,
        'slots_bad_speculation': 21883,
        'slots_frontend_bound': 127826,
        'slots_retiring': 29895,
        'slots_total': 425436,
        'wrong_path_blocks': 12974,
    }),
    ("kafka", "eip_46", 3, 30000, 6000, {
        'cycles': 21372,
        'decode_starvation_cycles': 11365,
        'extra': {},
        'fec_covered_events': 3,
        'fec_distinct_lines': 95,
        'fec_events': 85,
        'fec_high_cost_backend_events': 77,
        'fec_high_cost_events': 89,
        'fec_starvation_cycles': 8800,
        'instructions': 30011,
        'l1i_accesses': 24290,
        'l1i_misses': 466,
        'l2_data_misses': 789,
        'l2_inst_misses': 256,
        'l3_misses': 1045,
        'pdip_inserts': 0,
        'pdip_triggers_last_taken': 0,
        'pdip_triggers_mispredict': 0,
        'prefetch_late': 3,
        'prefetch_useful': 17,
        'prefetch_useless': 44,
        'prefetches_dropped': 8,
        'prefetches_issued': 78,
        'resteers': 436,
        'resteers_btb_miss': 247,
        'resteers_cond': 82,
        'resteers_indirect': 107,
        'resteers_return': 0,
        'retired_distinct_lines': 311,
        'slots_backend_bound': 58665,
        'slots_bad_speculation': 29728,
        'slots_frontend_bound': 137787,
        'slots_retiring': 30284,
        'slots_total': 256464,
        'wrong_path_blocks': 14769,
    }),
    ("voter", "next_line", 4, 30000, 6000, {
        'cycles': 23732,
        'decode_starvation_cycles': 11383,
        'extra': {},
        'fec_covered_events': 30,
        'fec_distinct_lines': 104,
        'fec_events': 124,
        'fec_high_cost_backend_events': 92,
        'fec_high_cost_events': 114,
        'fec_starvation_cycles': 8176,
        'instructions': 30005,
        'l1i_accesses': 36940,
        'l1i_misses': 666,
        'l2_data_misses': 859,
        'l2_inst_misses': 380,
        'l3_misses': 1239,
        'pdip_inserts': 0,
        'pdip_triggers_last_taken': 0,
        'pdip_triggers_mispredict': 0,
        'prefetch_late': 76,
        'prefetch_useful': 59,
        'prefetch_useless': 176,
        'prefetches_dropped': 108,
        'prefetches_issued': 298,
        'resteers': 596,
        'resteers_btb_miss': 248,
        'resteers_cond': 293,
        'resteers_indirect': 55,
        'resteers_return': 0,
        'retired_distinct_lines': 313,
        'slots_backend_bound': 59778,
        'slots_bad_speculation': 57581,
        'slots_frontend_bound': 137780,
        'slots_retiring': 29645,
        'slots_total': 284784,
        'wrong_path_blocks': 23109,
    }),
    ("xalan", "rdip", 5, 30000, 6000, {
        'cycles': 35279,
        'decode_starvation_cycles': 25530,
        'extra': {},
        'fec_covered_events': 17,
        'fec_distinct_lines': 243,
        'fec_events': 277,
        'fec_high_cost_backend_events': 235,
        'fec_high_cost_events': 269,
        'fec_starvation_cycles': 20315,
        'instructions': 30008,
        'l1i_accesses': 34654,
        'l1i_misses': 2752,
        'l2_data_misses': 837,
        'l2_inst_misses': 738,
        'l3_misses': 1528,
        'pdip_inserts': 0,
        'pdip_triggers_last_taken': 0,
        'pdip_triggers_mispredict': 0,
        'prefetch_late': 110,
        'prefetch_useful': 140,
        'prefetch_useless': 81,
        'prefetches_dropped': 137,
        'prefetches_issued': 331,
        'resteers': 874,
        'resteers_btb_miss': 622,
        'resteers_cond': 177,
        'resteers_indirect': 75,
        'resteers_return': 0,
        'retired_distinct_lines': 853,
        'slots_backend_bound': 38199,
        'slots_bad_speculation': 44578,
        'slots_frontend_bound': 310589,
        'slots_retiring': 29982,
        'slots_total': 423348,
        'wrong_path_blocks': 23674,
    }),
    ("tatp", "eip_analytical", 6, 30000, 6000, {
        'cycles': 31004,
        'decode_starvation_cycles': 7802,
        'extra': {},
        'fec_covered_events': 5,
        'fec_distinct_lines': 81,
        'fec_events': 61,
        'fec_high_cost_backend_events': 53,
        'fec_high_cost_events': 91,
        'fec_starvation_cycles': 5392,
        'instructions': 30005,
        'l1i_accesses': 24491,
        'l1i_misses': 428,
        'l2_data_misses': 2053,
        'l2_inst_misses': 168,
        'l3_misses': 1981,
        'pdip_inserts': 0,
        'pdip_triggers_last_taken': 0,
        'pdip_triggers_mispredict': 0,
        'prefetch_late': 6,
        'prefetch_useful': 44,
        'prefetch_useless': 70,
        'prefetches_dropped': 8,
        'prefetches_issued': 127,
        'resteers': 453,
        'resteers_btb_miss': 96,
        'resteers_cond': 288,
        'resteers_indirect': 69,
        'resteers_return': 0,
        'retired_distinct_lines': 243,
        'slots_backend_bound': 219900,
        'slots_bad_speculation': 27714,
        'slots_frontend_bound': 94089,
        'slots_retiring': 30345,
        'slots_total': 372048,
        'wrong_path_blocks': 14408,
    }),
    ("kafka", "pdip_44_path", 7, 30000, 6000, {
        'cycles': 20251,
        'decode_starvation_cycles': 8767,
        'extra': {},
        'fec_covered_events': 0,
        'fec_distinct_lines': 92,
        'fec_events': 90,
        'fec_high_cost_backend_events': 74,
        'fec_high_cost_events': 95,
        'fec_starvation_cycles': 6516,
        'instructions': 30010,
        'l1i_accesses': 26180,
        'l1i_misses': 653,
        'l2_data_misses': 800,
        'l2_inst_misses': 155,
        'l3_misses': 955,
        'pdip_inserts': 79,
        'pdip_triggers_last_taken': 0,
        'pdip_triggers_mispredict': 3328,
        'prefetch_late': 0,
        'prefetch_useful': 0,
        'prefetch_useless': 0,
        'prefetches_dropped': 0,
        'prefetches_issued': 0,
        'resteers': 423,
        'resteers_btb_miss': 161,
        'resteers_cond': 216,
        'resteers_indirect': 46,
        'resteers_return': 0,
        'retired_distinct_lines': 278,
        'slots_backend_bound': 68914,
        'slots_bad_speculation': 38032,
        'slots_frontend_bound': 106164,
        'slots_retiring': 29902,
        'slots_total': 243012,
        'wrong_path_blocks': 15073,
    }),
    ("dotty", "emissary", 8, 30000, 6000, {
        'cycles': 38658,
        'decode_starvation_cycles': 19816,
        'extra': {},
        'fec_covered_events': 0,
        'fec_distinct_lines': 197,
        'fec_events': 172,
        'fec_high_cost_backend_events': 146,
        'fec_high_cost_events': 222,
        'fec_starvation_cycles': 15743,
        'instructions': 30011,
        'l1i_accesses': 27741,
        'l1i_misses': 1352,
        'l2_data_misses': 2429,
        'l2_inst_misses': 652,
        'l3_misses': 2625,
        'pdip_inserts': 0,
        'pdip_triggers_last_taken': 0,
        'pdip_triggers_mispredict': 0,
        'prefetch_late': 0,
        'prefetch_useful': 0,
        'prefetch_useless': 0,
        'prefetches_dropped': 0,
        'prefetches_issued': 0,
        'resteers': 719,
        'resteers_btb_miss': 477,
        'resteers_cond': 106,
        'resteers_indirect': 136,
        'resteers_return': 0,
        'retired_distinct_lines': 668,
        'slots_backend_bound': 164326,
        'slots_bad_speculation': 29479,
        'slots_frontend_bound': 240088,
        'slots_retiring': 30003,
        'slots_total': 463896,
        'wrong_path_blocks': 18931,
    }),
    ("xalan", "fec_ideal", 9, 30000, 6000, {
        'cycles': 26012,
        'decode_starvation_cycles': 14308,
        'extra': {},
        'fec_covered_events': 0,
        'fec_distinct_lines': 149,
        'fec_events': 110,
        'fec_high_cost_backend_events': 125,
        'fec_high_cost_events': 130,
        'fec_starvation_cycles': 9497,
        'instructions': 30001,
        'l1i_accesses': 54815,
        'l1i_misses': 912,
        'l2_data_misses': 802,
        'l2_inst_misses': 330,
        'l3_misses': 1131,
        'pdip_inserts': 0,
        'pdip_triggers_last_taken': 0,
        'pdip_triggers_mispredict': 0,
        'prefetch_late': 0,
        'prefetch_useful': 0,
        'prefetch_useless': 0,
        'prefetches_dropped': 0,
        'prefetches_issued': 0,
        'resteers': 790,
        'resteers_btb_miss': 245,
        'resteers_cond': 493,
        'resteers_indirect': 52,
        'resteers_return': 0,
        'retired_distinct_lines': 467,
        'slots_backend_bound': 7282,
        'slots_bad_speculation': 100558,
        'slots_frontend_bound': 174343,
        'slots_retiring': 29961,
        'slots_total': 312144,
        'wrong_path_blocks': 38030,
    }),
    ("trace-phase", "pdip_44", 1, 30000, 6000, {
        'cycles': 43780,
        'decode_starvation_cycles': 21116,
        'extra': {},
        'fec_covered_events': 0,
        'fec_distinct_lines': 105,
        'fec_events': 97,
        'fec_high_cost_backend_events': 106,
        'fec_high_cost_events': 107,
        'fec_starvation_cycles': 13756,
        'instructions': 30007,
        'l1i_accesses': 89319,
        'l1i_misses': 293,
        'l2_data_misses': 860,
        'l2_inst_misses': 279,
        'l3_misses': 1139,
        'pdip_inserts': 107,
        'pdip_triggers_last_taken': 0,
        'pdip_triggers_mispredict': 9567,
        'prefetch_late': 0,
        'prefetch_useful': 1,
        'prefetch_useless': 0,
        'prefetches_dropped': 0,
        'prefetches_issued': 1,
        'resteers': 1469,
        'resteers_btb_miss': 307,
        'resteers_cond': 1091,
        'resteers_indirect': 70,
        'resteers_return': 1,
        'retired_distinct_lines': 312,
        'slots_backend_bound': 0,
        'slots_bad_speculation': 241070,
        'slots_frontend_bound': 254112,
        'slots_retiring': 30178,
        'slots_total': 525360,
        'wrong_path_blocks': 58184,
    }),
]


#: (label, benchmark, policy, seed, instructions, warmup, config, stats)
GOLDEN_CONFIG = [
    ("itlb", "cassandra", "pdip_44", 10, 30000, 6000,
     MachineConfig(hierarchy=HierarchyConfig(itlb_enabled=True)), {
        'cycles': 48064,
        'decode_starvation_cycles': 41831,
        'extra': {},
        'fec_covered_events': 64,
        'fec_distinct_lines': 409,
        'fec_events': 459,
        'fec_high_cost_backend_events': 398,
        'fec_high_cost_events': 465,
        'fec_starvation_cycles': 33878,
        'instructions': 30010,
        'l1i_accesses': 38380,
        'l1i_misses': 3932,
        'l2_data_misses': 809,
        'l2_inst_misses': 1231,
        'l3_misses': 1897,
        'pdip_inserts': 413,
        'pdip_triggers_last_taken': 175,
        'pdip_triggers_mispredict': 13710,
        'prefetch_late': 62,
        'prefetch_useful': 138,
        'prefetch_useless': 220,
        'prefetches_dropped': 203,
        'prefetches_issued': 422,
        'resteers': 1193,
        'resteers_btb_miss': 1039,
        'resteers_cond': 98,
        'resteers_indirect': 56,
        'resteers_return': 0,
        'retired_distinct_lines': 1277,
        'slots_backend_bound': 5044,
        'slots_bad_speculation': 32130,
        'slots_frontend_bound': 509603,
        'slots_retiring': 29991,
        'slots_total': 576768,
        'wrong_path_blocks': 26150,
    }),
]


#: (benchmark, policy, seed, instructions, warmup, probe,
#:  machine.cycle, stats.ipc, canonical_digest(stats.to_dict()))
GOLDEN_WORK = [
    ("tatp", "baseline", 1, 40000, 8000, False, 48336, 1.1230315789473684,
     "c44311674cddee8e81f19368afde2293c9e285a7"),
    ("tatp", "pdip_44", 1, 40000, 8000, False, 48327, 1.1231188230008984,
     "dccf500918820cd6359b90f53a3908818e2a7781"),
    ("dotty", "pdip_44", 1, 40000, 8000, False, 61593, 0.9192443811187204,
     "f82f89ff0c935e3142d90c2762171512ea0b31c4"),
    ("kafka", "eip_46", 1, 40000, 8000, False, 38241, 1.4319467315815853,
     "b67623710215f225604cc72f38bb9a9608cd3482"),
    ("tomcat", "next_line", 1, 40000, 8000, False, 51858, 1.1626365961404324,
     "e56e1daffb1442a14fe9efc4676b01c8c6951bb4"),
    ("xalan", "rdip", 1, 40000, 8000, False, 48039, 1.024980143988112,
     "960e1d8fa6f7ff3cb76e934a8e0abac310b08795"),
    ("tatp", "pdip_44", 1, 150000, 30000, False, 101122, 2.280501710376283,
     "f0526d40d288e8f13abca9b1d43e8712106407dd"),
    ("dotty", "baseline", 1, 150000, 30000, False, 139436, 1.5966323945760692,
     "3127e6f54e55aa6ac492a41990f728ab8b07b479"),
    # the probe turns cycle skipping off: the same stats, stepped
    ("tatp", "pdip_44", 1, 40000, 8000, True, 48327, 1.1231188230008984,
     "dccf500918820cd6359b90f53a3908818e2a7781"),
    # bundled traces: the trace-replayer front end
    ("trace-phase", "pdip_44", 1, 40000, 8000, False, 67664,
     0.7060193763566097, "bfa8a7921447d9c1f4759e7c2ab2a30389b51a6a"),
    ("trace-coldburst", "baseline", 1, 40000, 8000, False, 77280,
     0.6647833023132146, "ff61e368eefdd63ccb0a253b4b4c85a9968d9414"),
]


def run_work(bench, policy, seed, instructions, warmup, probe):
    """``(machine, stats)`` of one cell run on a machine built directly:
    no store, no pool, with a ``TimelineProbe`` attached if ``probe``."""
    machine = build_machine(get_layout(bench, seed=seed), get_profile(bench),
                            get_policy(policy), seed=seed)
    if probe:
        machine.probe = TimelineProbe(sample_every=200)
    return machine, machine.run(instructions, warmup=warmup)


def assert_golden(bench, policy, seed, instructions, warmup, want,
                  config=None):
    stats = run_benchmark(bench, policy, instructions=instructions,
                          warmup=warmup, config=config, seed=seed,
                          use_cache=False)
    got = stats.to_dict()
    assert got == want, {
        k: (want.get(k), got.get(k))
        for k in set(want) | set(got) if want.get(k) != got.get(k)
    }


@pytest.mark.parametrize(
    "bench,policy,seed,instructions,warmup,want", GOLDEN,
    ids=["%s-%s-s%d" % (b, p, s) for b, p, s, _, _, _ in GOLDEN])
def test_golden_stats(bench, policy, seed, instructions, warmup, want):
    assert_golden(bench, policy, seed, instructions, warmup, want)


@pytest.mark.parametrize(
    "label,bench,policy,seed,instructions,warmup,config,want",
    GOLDEN_CONFIG,
    ids=["%s-%s-s%d-%s" % (b, p, s, label) for label, b, p, s, _, _, _, _
         in GOLDEN_CONFIG])
def test_golden_stats_with_config(label, bench, policy, seed, instructions,
                                  warmup, config, want):
    assert_golden(bench, policy, seed, instructions, warmup, want, config)


@pytest.mark.parametrize(
    "bench,policy,seed,instructions,warmup,probe,cycles,ipc,digest",
    GOLDEN_WORK,
    ids=["%s-%s-%dk%s" % (b, p, i // 1000, "-probe" if probe else "")
         for b, p, _, i, _, probe, _, _, _ in GOLDEN_WORK])
def test_golden_work(bench, policy, seed, instructions, warmup, probe,
                     cycles, ipc, digest):
    machine, stats = run_work(bench, policy, seed, instructions, warmup,
                              probe)
    assert (machine.cycle, stats.ipc) == (cycles, ipc)
    assert canonical_digest(stats.to_dict()) == digest, stats.to_dict()
