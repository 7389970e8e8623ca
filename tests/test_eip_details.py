"""Focused tests for EIP's latency-based source selection."""

import pytest

from repro.frontend.ftq import FTQEntry
from repro.frontend.prefetch_queue import PrefetchQueue
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.prefetchers.eip import EIPConfig, EIPPrefetcher
from repro.workloads.layout import BasicBlock


def make_eip(**cfg):
    hierarchy = MemoryHierarchy(config=HierarchyConfig())
    pq = PrefetchQueue(hierarchy)
    return EIPPrefetcher(pq, config=EIPConfig(**cfg))


def committed(eip, line, cycle):
    block = BasicBlock(bid=0, addr=line * 64, num_instructions=4)
    entry = FTQEntry(block=block, lines=[line], enqueue_cycle=cycle)
    eip.on_retire(entry, cycle)


class TestFindSource:
    def test_picks_entry_with_enough_lead(self):
        eip = make_eip()
        for i, (line, cycle) in enumerate([(10, 0), (11, 20), (12, 40)]):
            committed(eip, line, cycle)
        # a miss needing 25 cycles of lead, requested at cycle 40:
        # want_cycle = 15 -> most recent history entry fetched <= 15 is 10
        assert eip._find_source(15) == 10

    def test_exact_boundary(self):
        eip = make_eip()
        committed(eip, 10, 0)
        committed(eip, 11, 20)
        assert eip._find_source(20) == 11

    def test_nothing_old_enough_falls_back_to_oldest(self):
        eip = make_eip()
        committed(eip, 10, 100)
        committed(eip, 11, 120)
        assert eip._find_source(50) == 10

    def test_empty_history(self):
        eip = make_eip()
        assert eip._find_source(10) is None


class TestEntanglementSemantics:
    def test_longer_latency_entangles_further_back(self):
        """The defining EIP property: a slower miss is entangled with an
        earlier (more lead time) source."""
        eip = make_eip()
        for i in range(6):
            committed(eip, 10 + i, i * 20)

        def entangle_for_latency(latency, dst):
            block = BasicBlock(bid=0, addr=dst * 64, num_instructions=4)
            entry = FTQEntry(block=block, lines=[dst], enqueue_cycle=120)
            entry.missed_lines = [dst]
            entry.ready_at = 120 + latency
            eip.on_retire(entry, 130)

        entangle_for_latency(30, 500)   # want_cycle 90 -> source 14
        entangle_for_latency(110, 600)  # want_cycle 10 -> source 10
        assert 500 in eip._lookup(14)
        assert 600 in eip._lookup(10)
