"""Dynamic execution over a :class:`~repro.workloads.layout.CodeLayout`.

Two walkers:

* :class:`PathWalker` — the architecturally-correct path. A seeded state
  machine (program counter + call stack + RNG) that emits one
  :class:`ControlFlowEvent` per basic block. Conditional outcomes are
  Bernoulli draws with the site's bias (loop back-edges are strongly
  taken, so trip counts are geometric); indirect targets are drawn from
  the site's weight table; calls push / returns pop the real stack.

* :class:`SpeculativePath` — wrong-path fetch after a front-end resteer.
  It walks from the mispredicted target following static-majority
  decisions (the direction/target a predictor with no dynamic state would
  choose) over a *copy* of the call stack, so wrong-path excursions never
  perturb the correct path.
"""

from __future__ import annotations

from typing import List, Optional

from repro.utils import derive_rng
from repro.workloads.layout import BasicBlock, BranchKind, CodeLayout


class ControlFlowEvent:
    """The outcome of executing one basic block on the correct path.

    Plain ``__slots__`` class (one is allocated per correct-path block,
    making construction a hot path).
    """

    __slots__ = ("block", "taken", "next_bid", "target_addr")

    def __init__(self, block: BasicBlock, taken: bool, next_bid: int,
                 target_addr: int):
        self.block = block
        self.taken = taken
        self.next_bid = next_bid
        #: byte address control transfers to (entry of ``next_bid``)
        self.target_addr = target_addr


class PathWalker:
    """Architecturally-correct path over a layout (deterministic per seed)."""

    # guard against pathological generated layouts; real stacks never get here
    MAX_STACK_DEPTH = 4096

    def __init__(self, layout: CodeLayout, seed: int = 0,
                 indirect_noise: float = 0.15):
        self.layout = layout
        self.rng = derive_rng(seed, "walker")
        self.indirect_noise = indirect_noise
        self.current = layout.functions[layout.entry_function].entry
        self.stack: List[int] = []
        self.events = 0
        self._pattern_pos: dict = {}

    def snapshot_stack(self) -> List[int]:
        """Copy of the call stack (for forking a speculative wrong path)."""
        return list(self.stack)

    def next_event(self) -> ControlFlowEvent:
        """Execute the current block and advance to its successor."""
        blocks = self.layout.blocks
        block = blocks[self.current]
        taken, next_bid = self._outcome(block)
        self.current = next_bid
        self.events += 1
        return ControlFlowEvent(block, taken, next_bid,
                                blocks[next_bid].addr)

    def _outcome(self, block: BasicBlock) -> "tuple[bool, int]":
        kind = block.kind
        if kind is BranchKind.FALLTHROUGH:
            return False, self._fallthrough(block)
        if kind is BranchKind.COND:
            if self.rng.random() < block.taken_bias:
                return True, block.taken_target
            return False, self._fallthrough(block)
        if kind is BranchKind.DIRECT:
            return True, block.taken_target
        if kind is BranchKind.CALL:
            self._push(block)
            return True, block.taken_target
        if kind is BranchKind.INDIRECT:
            return True, self._pick_indirect(block)
        if kind is BranchKind.INDIRECT_CALL:
            self._push(block)
            return True, self._pick_indirect(block)
        if kind is BranchKind.RETURN:
            if self.stack:
                return True, self.stack.pop()
            # stack underflow: restart the dispatcher loop
            return True, self.layout.functions[self.layout.entry_function].entry
        raise AssertionError("unhandled branch kind %r" % kind)

    def _push(self, block: BasicBlock) -> None:
        if block.fallthrough is None:
            raise ValueError("call block %d has no return point" % block.bid)
        if len(self.stack) >= self.MAX_STACK_DEPTH:
            raise RuntimeError("call stack overflow; layout is not acyclic")
        self.stack.append(block.fallthrough)

    def _pick_indirect(self, block: BasicBlock) -> int:
        """Next indirect target: per-site cyclic pattern with noise.

        The deterministic cycle models context-correlated dispatch (what
        ITTAGE exploits in real code); the noise term sets the asymptotic
        indirect mispredict rate.
        """
        pattern = block.indirect_pattern
        if pattern and self.rng.random() >= self.indirect_noise:
            pos = self._pattern_pos.get(block.bid, 0)
            self._pattern_pos[block.bid] = (pos + 1) % len(pattern)
            return block.indirect_targets[pattern[pos]]
        u = self.rng.random()
        for target, cum in zip(block.indirect_targets, block.indirect_weights):
            if u <= cum:
                return target
        return block.indirect_targets[-1]

    def _fallthrough(self, block: BasicBlock) -> int:
        if block.fallthrough is None:
            raise ValueError("block %d falls off function end" % block.bid)
        return block.fallthrough


def static_majority_successor(layout: CodeLayout, block: BasicBlock,
                              stack: List[int]) -> Optional[int]:
    """Successor a static (no dynamic state) predictor would follow.

    Used for wrong-path walking. ``stack`` is the speculative call stack
    and is mutated by CALL/RETURN. Returns None when the path dead-ends.
    """
    kind = block.kind
    if kind is BranchKind.FALLTHROUGH:
        return block.fallthrough
    if kind is BranchKind.COND:
        if block.taken_bias >= 0.5:
            return block.taken_target
        return block.fallthrough
    if kind is BranchKind.DIRECT:
        return block.taken_target
    if kind is BranchKind.CALL:
        if block.fallthrough is not None:
            stack.append(block.fallthrough)
        return block.taken_target
    if kind is BranchKind.INDIRECT:
        return _heaviest(block)
    if kind is BranchKind.INDIRECT_CALL:
        if block.fallthrough is not None:
            stack.append(block.fallthrough)
        return _heaviest(block)
    if kind is BranchKind.RETURN:
        if stack:
            return stack.pop()
        return None
    raise AssertionError("unhandled branch kind %r" % kind)


def _heaviest(block: BasicBlock) -> int:
    """Target with the largest weight (first in the cumulative table)."""
    best_idx = 0
    best_w = -1.0
    prev = 0.0
    for i, cum in enumerate(block.indirect_weights):
        w = cum - prev
        prev = cum
        if w > best_w:
            best_w = w
            best_idx = i
    return block.indirect_targets[best_idx]


#: :func:`static_successor_table` codes for blocks whose static
#: successor is not a plain block id. A code below ``SUCC_RETURN`` is a
#: call: push the block's ``fallthrough`` (its return point), then
#: continue at block id ``SUCC_RETURN - 1 - code``.
SUCC_DEAD_END = -1  # the path stops at this block
SUCC_RETURN = -2    # pop the speculative stack; stop when it is empty


def static_successor_table(layout: CodeLayout) -> List[int]:
    """Every block's :func:`static_majority_successor`, as one flat list.

    ``table[bid]`` is the successor block id, or a negative code (see
    :data:`SUCC_DEAD_END`). The rule is evaluated once per block against
    a one-entry probe stack, so it keeps its single definition: a block
    that pops the probe is a return, one that pushes onto it is a call.
    A call with no target dead-ends, and what it would have pushed is
    never read. Use :meth:`CodeLayout.static_successors`, which builds
    the table once per layout.
    """
    table: List[int] = []
    append = table.append
    for block in layout.blocks:
        probe = [block.bid]
        nxt = static_majority_successor(layout, block, probe)
        if not probe:
            append(SUCC_RETURN)
        elif nxt is None:
            append(SUCC_DEAD_END)
        elif len(probe) > 1:
            append(SUCC_RETURN - 1 - nxt)
        else:
            append(nxt)
    return table


class SpeculativePath:
    """Wrong-path fetch stream from a resteer target.

    ``start_bid`` is the block the (mis)predicted path enters;
    ``stack_snapshot`` is the correct-path call stack at the divergence
    point. ``step()`` yields consecutive wrong-path blocks until the path
    dead-ends or ``max_blocks`` is reached, reading each successor from
    the layout's static-successor table (``Machine._iag_fill`` inlines
    the same walk).
    """

    def __init__(self, layout: CodeLayout, start_bid: Optional[int],
                 stack_snapshot: List[int], max_blocks: int = 256):
        self.layout = layout
        self.successors = layout.static_successors()
        self.current = start_bid
        self.stack = list(stack_snapshot)
        self.remaining = max_blocks

    def step(self) -> Optional[BasicBlock]:
        """Return the next wrong-path block, or None when exhausted."""
        cur = self.current
        if cur is None or self.remaining <= 0:
            return None
        block = self.layout.blocks[cur]
        self.remaining -= 1
        nxt: Optional[int] = self.successors[cur]
        if nxt < 0:
            if nxt == SUCC_RETURN:
                nxt = self.stack.pop() if self.stack else None
            elif nxt == SUCC_DEAD_END:
                nxt = None
            else:
                self.stack.append(block.fallthrough)
                nxt = SUCC_RETURN - 1 - nxt
        self.current = nxt
        return block
