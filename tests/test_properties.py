"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.btb import BTB
from repro.branch.ras import ReturnAddressStack
from repro.branch.tage import GlobalHistory
from repro.core.pdip_table import PDIPTable
from repro.frontend.ftq import FTQ, FTQEntry
from repro.memory.cache import Cache
from repro.memory.replacement import EmissaryPolicy
from repro.utils import LINE_SIZE, derive_rng, line_of, lines_spanned
from repro.workloads.generator import generate_layout
from repro.workloads.layout import BasicBlock
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.walker import PathWalker

lines = st.integers(min_value=0, max_value=1 << 34)
addrs = st.integers(min_value=0, max_value=1 << 40)


class TestAddressProperties:
    @given(addrs)
    def test_line_of_consistent_with_spans(self, addr):
        assert lines_spanned(addr, 1) == [line_of(addr)]

    @given(addrs, st.integers(min_value=1, max_value=4096))
    def test_spans_are_contiguous(self, addr, nbytes):
        span = lines_spanned(addr, nbytes)
        assert span == list(range(span[0], span[-1] + 1))

    @given(addrs, st.integers(min_value=1, max_value=4096))
    def test_span_length_bound(self, addr, nbytes):
        span = lines_spanned(addr, nbytes)
        assert len(span) <= nbytes // LINE_SIZE + 2


def _registers(history):
    """(bits, live value) of every folded register of ``history``."""
    return [(row[3], row[0])
            for rows in (history.idx_rows, history.tag1_rows,
                         history.tag2_rows)
            for row in rows]


class TestFoldedHistoryProperties:
    @given(st.integers(min_value=2, max_value=64),
           st.integers(min_value=2, max_value=16),
           st.lists(st.integers(min_value=0, max_value=1), min_size=1,
                    max_size=300))
    def test_pure_function_of_window(self, length, bits, stream):
        """After any push sequence, every folded register depends only
        on the last ``length`` bits."""
        hist = GlobalHistory(1, length, length, bits, bits + 1)
        for b in stream:
            hist.push((b,))
        replay = GlobalHistory(1, length, length, bits, bits + 1)
        replay.push(([0] * length + stream)[-length:])
        assert _registers(hist) == _registers(replay)

    @given(st.integers(min_value=2, max_value=64),
           st.integers(min_value=2, max_value=16),
           st.lists(st.integers(min_value=0, max_value=1), max_size=300))
    def test_value_in_range(self, length, bits, stream):
        hist = GlobalHistory(1, length, length, bits, bits + 1)
        for b in stream:
            hist.push((b,))
            for width, value in _registers(hist):
                assert 0 <= value < (1 << width)


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                    max_size=300))
    def test_occupancy_never_exceeds_capacity(self, accesses):
        cache = Cache("p", size_kb=1, assoc=2, mshrs=64)  # 16 lines
        for i, line in enumerate(accesses):
            if cache.lookup(line, cycle=i) is None:
                cache.fill(line, ready_cycle=i)
        assert cache.resident_lines() <= 16
        for set_idx, ways in cache._sets.items():
            assert len(ways) <= 2

    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                    max_size=300))
    def test_filled_line_is_probeable_until_evicted(self, accesses):
        cache = Cache("p", size_kb=1, assoc=2, mshrs=64)
        resident = set()
        for i, line in enumerate(accesses):
            if cache.lookup(line, cycle=i) is None:
                result = cache.fill(line, ready_cycle=i)
                resident.add(line)
                if result.evicted_line is not None:
                    resident.discard(result.evicted_line)
        for line in resident:
            assert cache.probe(line)

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=200),
           st.integers(min_value=1, max_value=8))
    def test_emissary_respects_protected_cap(self, promote_seq, cap):
        policy = EmissaryPolicy(protected_ways=cap, promote_prob=1.0, seed=1)
        cache = Cache("p", size_kb=4, assoc=16, mshrs=64, policy=policy)
        for i, line in enumerate(promote_seq):
            if not cache.probe(line):
                cache.fill(line, ready_cycle=0)
            state = cache.get_state(line)
            policy.on_promote(state, cache.set_occupancy(line))
        for set_idx, ways in cache._sets.items():
            assert sum(1 for s in ways.values() if s.p_bit) <= cap


class TestBTBProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=10_000),
                              st.integers(min_value=0, max_value=1 << 20)),
                    min_size=1, max_size=400))
    def test_lookup_returns_last_inserted_target(self, inserts):
        btb = BTB(num_entries=1024, assoc=4)
        last = {}
        for pc, target in inserts:
            btb.insert(pc * 4, target, "direct")
            last[pc * 4] = target
        for pc, target in last.items():
            entry = btb.lookup(pc)
            if entry is not None:  # may have been evicted
                assert entry.target == target


class TestRASProperties:
    @given(st.lists(st.one_of(
        st.tuples(st.just("push"), st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("pop"), st.just(0))), max_size=200))
    def test_matches_reference_within_depth(self, ops):
        """While the stack stays within depth, the RAS behaves exactly
        like a plain list."""
        depth = 16
        ras = ReturnAddressStack(depth=depth)
        reference = []
        overflowed = False
        for op, value in ops:
            if op == "push":
                ras.push(value)
                reference.append(value)
                if len(reference) > depth:
                    overflowed = True
            else:
                got = ras.pop()
                want = reference.pop() if reference else None
                if not overflowed:
                    assert got == want

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=100))
    def test_count_bounded(self, pushes):
        ras = ReturnAddressStack(depth=8)
        for v in pushes:
            ras.push(v)
            assert len(ras) <= 8


class TestPDIPTableProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=4000),
                              st.integers(min_value=0, max_value=100_000)),
                    min_size=1, max_size=400))
    def test_lookup_lines_derive_from_inserts(self, pairs):
        """Every line a lookup returns must be an inserted target or a
        mask expansion within 4 blocks of one."""
        table = PDIPTable(assoc=4)
        inserted = set()
        for trigger, target in pairs:
            table.insert(trigger, target)
            inserted.add(target)
        for trigger, _ in pairs:
            for line, _type in table.lookup(trigger):
                assert any(line - d in inserted for d in range(0, 5))

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=4000),
                              st.integers(min_value=0, max_value=100_000)),
                    min_size=1, max_size=400))
    def test_occupancy_bounded(self, pairs):
        table = PDIPTable(assoc=4, num_sets=64)
        for trigger, target in pairs:
            table.insert(trigger, target)
        assert table.occupancy() <= 64 * 4

    @given(st.integers(min_value=0, max_value=4000),
           st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=20))
    def test_masked_lines_unique(self, trigger, targets):
        table = PDIPTable()
        for t in targets:
            table.insert(trigger, 5000 + t)
        lines = [line for line, _ in table.lookup(trigger)]
        assert len(lines) == len(set(lines))


class TestFTQProperties:
    @given(st.lists(st.sampled_from(["push", "pop", "flush"]), max_size=200))
    def test_fifo_semantics(self, ops):
        ftq = FTQ(depth=8)
        reference = []
        counter = 0
        for op in ops:
            if op == "push" and not ftq.full:
                block = BasicBlock(bid=counter, addr=counter * 64,
                                   num_instructions=1)
                ftq.push(FTQEntry(block=block, lines=[counter],
                                  enqueue_cycle=0))
                reference.append(counter)
                counter += 1
            elif op == "pop" and not ftq.empty:
                assert ftq.pop().block.bid == reference.pop(0)
            elif op == "flush":
                ftq.flush()
                reference.clear()
            assert len(ftq) == len(reference)
            assert len(ftq) <= 8


class TestWalkerProperties:
    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=1 << 30))
    def test_walker_never_leaves_layout(self, seed):
        profile = WorkloadProfile(name="prop", num_functions=40,
                                  num_handlers=6, num_leaves=6, call_depth=2)
        layout = generate_layout(profile, seed=3)
        walker = PathWalker(layout, seed=seed)
        for _ in range(400):
            ev = walker.next_event()
            assert 0 <= ev.next_bid < layout.num_blocks
            assert ev.target_addr == layout.blocks[ev.next_bid].addr
