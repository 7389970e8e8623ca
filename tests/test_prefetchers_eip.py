"""Tests for the EIP entangling prefetcher."""

import pytest

from repro.frontend.ftq import FTQEntry
from repro.frontend.prefetch_queue import PrefetchQueue
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.prefetchers.eip import EIPConfig, EIPPrefetcher
from repro.workloads.layout import BasicBlock


def make_eip(**cfg_kw):
    hierarchy = MemoryHierarchy(config=HierarchyConfig())
    pq = PrefetchQueue(hierarchy)
    return EIPPrefetcher(pq, config=EIPConfig(**cfg_kw)), pq


def entry(lines, enqueue=0, ready=None, missed=None):
    block = BasicBlock(bid=0, addr=lines[0] * 64, num_instructions=4)
    e = FTQEntry(block=block, lines=list(lines), enqueue_cycle=enqueue)
    if ready is not None:
        # every line's fill ready at ``ready``: the fill's running max
        e.ready_at = ready
    if missed:
        e.missed_lines = list(missed)
    return e


class TestEntangling:
    def test_miss_entangles_with_history(self):
        eip, pq = make_eip()
        # commit a history of blocks at early cycles
        for i, ln in enumerate((10, 11, 12)):
            eip.on_retire(entry([ln], enqueue=i * 10), cycle=i * 10)
        # a block that missed with latency 25, fetched at cycle 40
        e = entry([50], enqueue=40, ready=65, missed=[50])
        eip.on_retire(e, cycle=70)
        assert eip.entangles == 1
        # src should be a history block fetched at or before cycle 15
        dsts = eip._lookup(10) + eip._lookup(11)
        assert 50 in dsts

    def test_no_miss_no_entangle(self):
        eip, pq = make_eip()
        eip.on_retire(entry([10], enqueue=0), cycle=0)
        eip.on_retire(entry([50], enqueue=40, ready=42), cycle=50)
        assert eip.entangles == 0

    def test_history_bounded(self):
        eip, pq = make_eip(history_entries=5)
        for i in range(20):
            eip.on_retire(entry([100 + i], enqueue=i), cycle=i)
        assert len(eip._history) == 5

    def test_self_entangle_avoided(self):
        eip, pq = make_eip()
        e = entry([50], enqueue=0, ready=30, missed=[50])
        eip.on_retire(e, cycle=10)
        assert 50 not in eip._lookup(50)


class TestLookupPrefetch:
    def _trained(self, analytical=False):
        eip, pq = make_eip(analytical=analytical)
        eip.on_retire(entry([10], enqueue=0), cycle=0)
        eip.on_retire(entry([50], enqueue=40, ready=70, missed=[50]),
                      cycle=80)
        return eip, pq

    def test_ftq_enqueue_triggers_prefetch(self):
        eip, pq = self._trained()
        eip.on_ftq_enqueue(entry([10]), cycle=100)
        assert eip.prefetch_requests == 1
        assert len(pq) == 1

    def test_unrelated_block_no_prefetch(self):
        eip, pq = self._trained()
        eip.on_ftq_enqueue(entry([77]), cycle=100)
        assert eip.prefetch_requests == 0

    def test_analytical_variant(self):
        eip, pq = self._trained(analytical=True)
        eip.on_ftq_enqueue(entry([10]), cycle=100)
        assert eip.prefetch_requests == 1


class TestBudgets:
    def test_budget_determines_ways(self):
        small = EIPPrefetcher(PrefetchQueue(
            MemoryHierarchy(config=HierarchyConfig())),
            config=EIPConfig(budget_kb=11.0))
        large = EIPPrefetcher(PrefetchQueue(
            MemoryHierarchy(config=HierarchyConfig())),
            config=EIPConfig(budget_kb=46.0))
        assert large.assoc > small.assoc
        assert small.storage_kb <= 11.0
        assert large.storage_kb <= 46.0

    def test_dst_cap_budgeted(self):
        eip, _ = make_eip(dsts_per_entry=2)
        for dst in (100, 101, 102):
            eip._entangle(10, dst)
        assert len(eip._lookup(10)) == 2
        assert 100 not in eip._lookup(10)  # oldest displaced

    def test_dst_cap_analytical(self):
        eip, _ = make_eip(analytical=True, analytical_dst_cap=3)
        for dst in range(100, 110):
            eip._entangle(10, dst)
        assert len(eip._lookup(10)) == 3

    def test_table_capacity_bounded(self):
        eip, _ = make_eip(budget_kb=2.0, num_sets=16)
        for src in range(1000):
            eip._entangle(src, src + 5000)
        resident = sum(len(w) for w in eip._sets.values())
        assert resident <= 16 * eip.assoc

    def test_analytical_storage_reports_footprint(self):
        eip, _ = make_eip(analytical=True)
        assert eip.storage_kb == 0.0
        eip._entangle(10, 100)
        assert eip.storage_kb > 0.0
