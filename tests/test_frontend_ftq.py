"""Tests for the fetch target queue."""

import pytest

from repro.frontend.ftq import FTQ, FTQEntry
from repro.workloads.layout import BasicBlock, BranchKind


def entry(bid=0, cycle=0, lines=None):
    block = BasicBlock(bid=bid, addr=0x1000 + bid * 64, num_instructions=4)
    return FTQEntry(block=block, lines=lines or block.lines(),
                    enqueue_cycle=cycle)


class TestFTQ:
    def test_starts_empty(self):
        ftq = FTQ(depth=4)
        assert ftq.empty
        assert not ftq.full
        assert len(ftq) == 0
        assert ftq.head() is None

    def test_fifo_order(self):
        ftq = FTQ(depth=4)
        for i in range(3):
            ftq.push(entry(bid=i))
        assert ftq.pop().block.bid == 0
        assert ftq.pop().block.bid == 1
        assert ftq.pop().block.bid == 2

    def test_full_rejects_push(self):
        ftq = FTQ(depth=2)
        ftq.push(entry(0))
        ftq.push(entry(1))
        assert ftq.full
        with pytest.raises(RuntimeError):
            ftq.push(entry(2))

    def test_flush_empties(self):
        ftq = FTQ(depth=4)
        for i in range(3):
            ftq.push(entry(i))
        assert ftq.flush() == 3
        assert ftq.empty
        assert ftq.flushes == 1
        assert ftq.flushed_entries == 3

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            FTQ(depth=0)

    def test_iteration(self):
        ftq = FTQ(depth=4)
        for i in range(3):
            ftq.push(entry(i))
        assert [e.block.bid for e in ftq] == [0, 1, 2]


class TestFTQEntry:
    def test_ready_cycle_without_fills(self):
        e = entry(cycle=7)
        assert e.ready_cycle == 7

    def test_ready_cycle_is_max_of_lines(self):
        e = entry(cycle=0)
        for ready in (5, 42, 17):  # line fills, kept as a running max
            if ready > e.ready_at:
                e.ready_at = ready
        assert e.ready_cycle == 42

    def test_incurred_miss(self):
        e = entry()
        assert not e.incurred_miss
        e.missed_lines = [10]
        assert e.incurred_miss

    def test_pending_counts_as_miss(self):
        e = entry()
        e.pending_lines = [10]
        assert e.incurred_miss
