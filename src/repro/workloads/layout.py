"""Static code layout model: functions, basic blocks, and branch sites.

A :class:`CodeLayout` is the synthetic equivalent of a program binary.
Basic blocks carry byte addresses (so cache-line and BTB behaviour are
realistic) and a terminator describing the control transfer at the end of
the block. The dynamic behaviour (which way branches go) lives in
:mod:`repro.workloads.walker`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.utils import INSTRUCTION_SIZE, lines_spanned


class BranchKind(Enum):
    """Control transfer at the end of a basic block."""

    FALLTHROUGH = "fallthrough"  # no branch; sequential successor
    COND = "cond"                # conditional branch (taken target + fallthrough)
    DIRECT = "direct"            # unconditional direct jump
    INDIRECT = "indirect"        # indirect jump (jump table / virtual dispatch)
    CALL = "call"                # direct call
    INDIRECT_CALL = "indirect_call"  # indirect call (one of several callees)
    RETURN = "return"            # return to caller


#: Branch kinds that transfer control away from the sequential successor
#: whenever they execute taken. Used by the BTB (only taken branches are
#: inserted) and by the FTQ (an entry ends at a taken transfer).
TAKEN_KINDS = frozenset(
    {
        BranchKind.DIRECT,
        BranchKind.INDIRECT,
        BranchKind.CALL,
        BranchKind.INDIRECT_CALL,
        BranchKind.RETURN,
    }
)


@dataclass
class BasicBlock:
    """One straight-line run of instructions ending in a control transfer.

    Addresses are byte addresses; every instruction is
    :data:`repro.utils.INSTRUCTION_SIZE` bytes.
    """

    bid: int
    addr: int
    num_instructions: int
    kind: BranchKind = BranchKind.FALLTHROUGH
    #: Successor block id when the terminator is taken (COND taken target,
    #: DIRECT/CALL target, or None for INDIRECT/RETURN which resolve
    #: dynamically).
    taken_target: Optional[int] = None
    #: Sequential successor block id (COND not-taken, FALLTHROUGH, and the
    #: return point of a CALL). None for the last block of a function.
    fallthrough: Optional[int] = None
    #: Probability the COND terminator is taken.
    taken_bias: float = 0.0
    #: Candidate target block ids for INDIRECT jumps / INDIRECT_CALL entry
    #: blocks, with matching cumulative selection weights.
    indirect_targets: Tuple[int, ...] = ()
    indirect_weights: Tuple[float, ...] = ()
    #: Deterministic per-site target sequence (indices into
    #: ``indirect_targets``): real indirect branches are correlated with
    #: calling context, so the walker cycles this pattern (with a noise
    #: probability of drawing from the weight table instead), which gives
    #: ITTAGE something learnable. Empty for non-indirect blocks.
    indirect_pattern: Tuple[int, ...] = ()
    #: Owning function id.
    fid: int = -1
    #: memoized :meth:`lines` result (blocks are immutable once the
    #: layout is generated, so the span never changes)
    _lines: Optional[List[int]] = field(default=None, repr=False,
                                        compare=False)

    @property
    def size_bytes(self) -> int:
        """Block size in bytes."""
        return self.num_instructions * INSTRUCTION_SIZE

    @property
    def end_addr(self) -> int:
        """Byte address one past the last instruction."""
        return self.addr + self.size_bytes

    @property
    def branch_pc(self) -> int:
        """Address of the terminating instruction (the branch site)."""
        return self.addr + (self.num_instructions - 1) * INSTRUCTION_SIZE

    @property
    def is_branch(self) -> bool:
        """True unless the block falls through."""
        return self.kind is not BranchKind.FALLTHROUGH

    def lines(self) -> List[int]:
        """Cache-line numbers this block occupies (memoized).

        The returned list is shared across calls — treat it as
        read-only (every hot-path consumer only iterates or slices it).
        """
        cached = self._lines
        if cached is None:
            cached = self._lines = lines_spanned(self.addr, self.size_bytes)
        return cached


@dataclass
class Function:
    """A function: an entry block and the ordered blocks it contains."""

    fid: int
    name: str
    entry: int
    blocks: List[int] = field(default_factory=list)


@dataclass
class CodeLayout:
    """The whole synthetic binary.

    ``blocks`` is indexed by block id; ``functions`` by function id.
    ``entry_function`` is the dispatcher the walker starts (and loops) in.
    """

    blocks: List[BasicBlock] = field(default_factory=list)
    functions: List[Function] = field(default_factory=list)
    entry_function: int = 0

    def block(self, bid: int) -> BasicBlock:
        """Block by id."""
        return self.blocks[bid]

    def function(self, fid: int) -> Function:
        """Function by id."""
        return self.functions[fid]

    @property
    def num_blocks(self) -> int:
        """Total basic blocks."""
        return len(self.blocks)

    @property
    def total_instructions(self) -> int:
        """Static instruction count."""
        return sum(b.num_instructions for b in self.blocks)

    def footprint_lines(self) -> int:
        """Number of distinct cache lines occupied by code."""
        lines = set()
        for block in self.blocks:
            lines.update(block.lines())
        return len(lines)

    def footprint_bytes(self) -> int:
        """Static code bytes."""
        return sum(b.size_bytes for b in self.blocks)

    def entry_index(self) -> Dict[int, int]:
        """Map block start address -> block id (built once, then cached).

        The front end uses this to turn a predicted target *address* (from
        the BTB/ITTAGE) back into a block for speculative path walking.
        """
        cached = getattr(self, "_entry_index", None)
        if cached is None:
            cached = {b.addr: b.bid for b in self.blocks}
            self._entry_index = cached
        return cached

    def static_successors(self) -> List[int]:
        """Wrong-path successor code per block id (built once, then cached).

        :func:`repro.workloads.walker.static_successor_table` defines the
        codes; the front end's wrong-path walk reads this table instead
        of evaluating the static-majority rule once per block.
        """
        cached = getattr(self, "_static_successors", None)
        if cached is None:
            from repro.workloads.walker import static_successor_table
            cached = static_successor_table(self)
            self._static_successors = cached
        return cached

    def block_at(self, addr: int) -> Optional[BasicBlock]:
        """Find the block whose address range contains ``addr`` (linear scan;
        only used by tests and diagnostics)."""
        for block in self.blocks:
            if block.addr <= addr < block.end_addr:
                return block
        return None

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        for block in self.blocks:
            if block.num_instructions <= 0:
                raise ValueError("block %d has no instructions" % block.bid)
            for succ in (block.taken_target, block.fallthrough):
                if succ is not None and not (0 <= succ < len(self.blocks)):
                    raise ValueError(
                        "block %d successor %r out of range" % (block.bid, succ)
                    )
            if block.kind is BranchKind.COND:
                if block.taken_target is None or block.fallthrough is None:
                    raise ValueError("COND block %d missing successor" % block.bid)
                if not 0.0 <= block.taken_bias <= 1.0:
                    raise ValueError("COND block %d bias out of range" % block.bid)
            if block.kind in (BranchKind.INDIRECT, BranchKind.INDIRECT_CALL):
                if not block.indirect_targets:
                    raise ValueError(
                        "indirect block %d has no targets" % block.bid
                    )
                if len(block.indirect_targets) != len(block.indirect_weights):
                    raise ValueError(
                        "indirect block %d weight mismatch" % block.bid
                    )
        for func in self.functions:
            if not func.blocks:
                raise ValueError("function %d empty" % func.fid)
            if self.blocks[func.entry].fid != func.fid:
                raise ValueError("function %d entry not owned" % func.fid)
