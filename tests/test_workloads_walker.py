"""Tests for the correct-path walker and speculative wrong-path walker."""

import pytest

from repro.workloads.generator import generate_layout
from repro.workloads.layout import BasicBlock, BranchKind, CodeLayout, Function
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.walker import (
    SUCC_DEAD_END,
    SUCC_RETURN,
    PathWalker,
    SpeculativePath,
    static_majority_successor,
)

SMALL = WorkloadProfile(name="walker-test", num_functions=50, num_handlers=6,
                        num_leaves=8, call_depth=3)


@pytest.fixture(scope="module")
def layout():
    return generate_layout(SMALL, seed=11)


class TestPathWalker:
    def test_deterministic(self, layout):
        a = PathWalker(layout, seed=5)
        b = PathWalker(layout, seed=5)
        for _ in range(500):
            ea, eb = a.next_event(), b.next_event()
            assert ea.block.bid == eb.block.bid
            assert ea.taken == eb.taken
            assert ea.next_bid == eb.next_bid

    def test_seed_matters(self, layout):
        a = PathWalker(layout, seed=5)
        b = PathWalker(layout, seed=6)
        trace_a = [a.next_event().block.bid for _ in range(300)]
        trace_b = [b.next_event().block.bid for _ in range(300)]
        assert trace_a != trace_b

    def test_successors_are_consistent(self, layout):
        """The event's next_bid must be a legal successor of the block."""
        w = PathWalker(layout, seed=5)
        prev = None
        for _ in range(1000):
            ev = w.next_event()
            if prev is not None:
                assert ev.block.bid == prev.next_bid
            prev = ev

    def test_taken_matches_kind(self, layout):
        w = PathWalker(layout, seed=5)
        for _ in range(1000):
            ev = w.next_event()
            kind = ev.block.kind
            if kind in (BranchKind.DIRECT, BranchKind.CALL,
                        BranchKind.INDIRECT, BranchKind.INDIRECT_CALL,
                        BranchKind.RETURN):
                assert ev.taken
            if kind is BranchKind.FALLTHROUGH:
                assert not ev.taken

    def test_target_addr_matches_next_block(self, layout):
        w = PathWalker(layout, seed=5)
        for _ in range(500):
            ev = w.next_event()
            assert ev.target_addr == layout.blocks[ev.next_bid].addr

    def test_calls_and_returns_balance(self, layout):
        """A return always goes back to the pending call's fallthrough."""
        w = PathWalker(layout, seed=5)
        stack = []
        for _ in range(2000):
            ev = w.next_event()
            kind = ev.block.kind
            if kind in (BranchKind.CALL, BranchKind.INDIRECT_CALL):
                stack.append(ev.block.fallthrough)
            elif kind is BranchKind.RETURN and stack:
                assert ev.next_bid == stack.pop()

    def test_stack_bounded(self, layout):
        w = PathWalker(layout, seed=5)
        for _ in range(5000):
            w.next_event()
            assert len(w.stack) < 64

    def test_snapshot_stack_is_a_copy(self, layout):
        w = PathWalker(layout, seed=5)
        for _ in range(50):
            w.next_event()
        snap = w.snapshot_stack()
        before = list(snap)
        for _ in range(100):
            w.next_event()
        assert snap == before

    def test_indirect_noise_zero_follows_pattern(self, layout):
        """With zero noise, an indirect site cycles its pattern exactly."""
        w = PathWalker(layout, seed=5, indirect_noise=0.0)
        seen = {}
        for _ in range(5000):
            ev = w.next_event()
            blk = ev.block
            if blk.kind in (BranchKind.INDIRECT, BranchKind.INDIRECT_CALL):
                pos = seen.get(blk.bid, 0)
                expected = blk.indirect_targets[
                    blk.indirect_pattern[pos % len(blk.indirect_pattern)]]
                assert ev.next_bid == expected
                seen[blk.bid] = pos + 1


class TestStaticMajority:
    def test_cond_follows_bias(self):
        blk = BasicBlock(bid=0, addr=0, num_instructions=1,
                         kind=BranchKind.COND, taken_target=1, fallthrough=2,
                         taken_bias=0.9)
        lay = CodeLayout(blocks=[blk], functions=[])
        assert static_majority_successor(lay, blk, []) == 1
        blk.taken_bias = 0.1
        assert static_majority_successor(lay, blk, []) == 2

    def test_return_pops_stack(self):
        blk = BasicBlock(bid=0, addr=0, num_instructions=1,
                         kind=BranchKind.RETURN)
        lay = CodeLayout(blocks=[blk], functions=[])
        stack = [7]
        assert static_majority_successor(lay, blk, stack) == 7
        assert stack == []

    def test_return_empty_stack_dead_ends(self):
        blk = BasicBlock(bid=0, addr=0, num_instructions=1,
                         kind=BranchKind.RETURN)
        lay = CodeLayout(blocks=[blk], functions=[])
        assert static_majority_successor(lay, blk, []) is None

    def test_call_pushes_return_point(self):
        blk = BasicBlock(bid=0, addr=0, num_instructions=1,
                         kind=BranchKind.CALL, taken_target=3, fallthrough=1)
        lay = CodeLayout(blocks=[blk], functions=[])
        stack = []
        assert static_majority_successor(lay, blk, stack) == 3
        assert stack == [1]


class TestSpeculativePath:
    def test_none_start_yields_nothing(self, layout):
        path = SpeculativePath(layout, None, [])
        assert path.step() is None

    def test_walks_blocks(self, layout):
        entry = layout.functions[1].entry
        path = SpeculativePath(layout, entry, [], max_blocks=10)
        blocks = []
        while True:
            blk = path.step()
            if blk is None:
                break
            blocks.append(blk)
        assert blocks
        assert blocks[0].bid == entry
        assert len(blocks) <= 10

    def test_does_not_mutate_snapshot(self, layout):
        entry = layout.functions[1].entry
        snapshot = [3, 4, 5]
        path = SpeculativePath(layout, entry, snapshot, max_blocks=50)
        while path.step() is not None:
            pass
        assert snapshot == [3, 4, 5]

    def test_respects_max_blocks(self, layout):
        entry = layout.functions[0].entry  # dispatcher loops forever
        path = SpeculativePath(layout, entry, [], max_blocks=5)
        count = 0
        while path.step() is not None:
            count += 1
        assert count == 5


class TestStaticSuccessorTable:
    """The wrong path's table walk is the static-majority rule's walk."""

    @staticmethod
    def rule_walk(layout, start, stack, steps):
        """``(bid, successor, stack)`` per step, by the rule itself."""
        out = []
        cur = start
        for _ in range(steps):
            if cur is None:
                break
            nxt = static_majority_successor(layout, layout.blocks[cur], stack)
            out.append((cur, nxt, list(stack)))
            cur = nxt
        return out

    @staticmethod
    def table_walk(layout, start, stack, steps):
        path = SpeculativePath(layout, start, stack, max_blocks=steps)
        out = []
        while True:
            block = path.step()
            if block is None:
                break
            out.append((block.bid, path.current, list(path.stack)))
        return out

    @pytest.mark.parametrize("bench", ["tatp", "cassandra", "trace-phase"])
    def test_every_block_walks_like_the_rule(self, bench):
        from repro.simulator.runner import get_layout

        layout = get_layout(bench, seed=1)
        table = layout.static_successors()
        assert len(table) == len(layout.blocks)
        assert layout.static_successors() is table  # built once
        # return points a correct path could hold at the divergence,
        # so RETURN blocks pop real entries before the stack runs dry
        snapshot = [f.entry for f in layout.functions[:2]]
        calls = returns = 0
        for block in layout.blocks:
            want = self.rule_walk(layout, block.bid, list(snapshot), 8)
            got = self.table_walk(layout, block.bid, list(snapshot), 8)
            assert got == want, block.bid
            kind = block.kind
            calls += kind in (BranchKind.CALL, BranchKind.INDIRECT_CALL)
            returns += kind is BranchKind.RETURN
        assert calls and returns  # the stack codes were exercised

    def test_codes_for_hand_built_blocks(self):
        blocks = [
            BasicBlock(bid=0, addr=0x1000, num_instructions=1,
                       kind=BranchKind.CALL, taken_target=2, fallthrough=1),
            BasicBlock(bid=1, addr=0x1004, num_instructions=1,
                       kind=BranchKind.FALLTHROUGH, fallthrough=None),
            BasicBlock(bid=2, addr=0x2000, num_instructions=1,
                       kind=BranchKind.RETURN),
        ]
        layout = CodeLayout(blocks=blocks, functions=[])
        assert layout.static_successors() == [
            SUCC_RETURN - 1 - 2, SUCC_DEAD_END, SUCC_RETURN]
        path = SpeculativePath(layout, 0, [])
        assert [path.step().bid for _ in range(3)] == [0, 2, 1]
        assert path.stack == []
        assert path.step() is None  # the return point falls off the end
