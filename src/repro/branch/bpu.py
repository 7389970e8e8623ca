"""Composite branch prediction unit for the decoupled front end.

The BPU walks basic blocks on behalf of the instruction address generator
and reports, for each block, whether the front end would have followed
the correct path — and if not, which *kind* of resteer occurs. The BTB is
the branch-discovery structure: a taken branch absent from the BTB is
invisible to the IAG, which keeps fetching sequentially until pre-decode
catches the bogus path (the paper's "early correction" feature).

Mispredict kinds map directly onto the paper's trigger categories
(Section 4.2): conditional / indirect / return mispredicts resolve at
execute; BTB misses resteer earlier, at pre-decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.branch.btb import BTB
from repro.branch.ittage import ITTAGEPredictor
from repro.branch.ras import ReturnAddressStack
from repro.branch.tage import TAGEPredictor
from repro.utils import SLOTTED
from repro.workloads.layout import BasicBlock, BranchKind


class MispredictKind(Enum):
    """Why the front end had to resteer."""

    NONE = "none"
    COND_MISPREDICT = "cond_mispredict"        # TAGE wrong direction
    INDIRECT_MISPREDICT = "indirect_mispredict"  # ITTAGE wrong target
    RETURN_MISPREDICT = "return_mispredict"    # RAS wrong
    BTB_MISS = "btb_miss"                      # taken branch unknown to IAG

    @property
    def is_resteer(self) -> bool:
        """True when this verdict forces a front-end resteer."""
        return self is not MispredictKind.NONE

    @property
    def resolves_at_predecode(self) -> bool:
        """BTB misses are caught by the early-correction pre-decoder."""
        return self is MispredictKind.BTB_MISS


@dataclass(**SLOTTED)
class BlockPrediction:
    """BPU verdict for one executed basic block."""

    mispredict: MispredictKind
    #: address the (wrong) predicted path starts at, when mispredicted
    predicted_target: Optional[int]


#: the no-resteer verdict — by far the most common outcome, so every
#: correct prediction shares this one immutable instance instead of
#: allocating a fresh record per block (treat it as read-only)
_CORRECT = BlockPrediction(MispredictKind.NONE, None)


class BranchPredictionUnit:
    """TAGE + ITTAGE + BTB + RAS, driven along the committed path.

    The simulator feeds each block's *actual* outcome; the BPU forms its
    prediction first, compares, trains, and reports resteers. (Training
    at prediction time rather than at retire is a standard trace-driven
    simplification; the predictors never see wrong-path history.)
    """

    def __init__(self, btb_entries: int = 8192, btb_assoc: int = 8,
                 ras_depth: int = 64, seed: int = 0,
                 tage: Optional[TAGEPredictor] = None,
                 ittage: Optional[ITTAGEPredictor] = None):
        self.btb = BTB(num_entries=btb_entries, assoc=btb_assoc)
        self.tage = tage if tage is not None else TAGEPredictor(seed=seed)
        self.ittage = ittage if ittage is not None else ITTAGEPredictor(seed=seed)
        self.ras = ReturnAddressStack(depth=ras_depth)

        self.blocks_predicted = 0
        self.cond_mispredicts = 0
        self.indirect_mispredicts = 0
        self.return_mispredicts = 0
        self.btb_misses = 0

    def predict_block(self, block: BasicBlock, taken: bool,
                      target_addr: int) -> BlockPrediction:
        """Predict block's control transfer given the actual outcome.

        ``taken``/``target_addr`` describe the architecturally-correct
        transfer (from the path walker); the return value says whether the
        IAG would have followed it.
        """
        self.blocks_predicted += 1
        kind = block.kind
        if kind is BranchKind.FALLTHROUGH:
            return _CORRECT

        pc = block.branch_pc
        fallthrough_addr = block.end_addr

        if kind is BranchKind.COND:
            return self._predict_cond(block, pc, taken, target_addr,
                                      fallthrough_addr)
        if kind is BranchKind.DIRECT:
            return self._predict_direct(pc, target_addr, fallthrough_addr,
                                        "direct")
        if kind is BranchKind.CALL:
            result = self._predict_direct(pc, target_addr, fallthrough_addr,
                                          "call")
            self.ras.push(fallthrough_addr)
            return result
        if kind in (BranchKind.INDIRECT, BranchKind.INDIRECT_CALL):
            result = self._predict_indirect(block, pc, target_addr,
                                            fallthrough_addr)
            if kind is BranchKind.INDIRECT_CALL:
                self.ras.push(fallthrough_addr)
            return result
        if kind is BranchKind.RETURN:
            return self._predict_return(pc, target_addr, fallthrough_addr)
        raise AssertionError("unhandled branch kind %r" % kind)

    # -- per-kind helpers -----------------------------------------------------
    def _predict_cond(self, block: BasicBlock, pc: int, taken: bool,
                      target_addr: int, fallthrough_addr: int) -> BlockPrediction:
        entry = self.btb.lookup(pc)
        if entry is None:
            # branch invisible to the IAG: implicit not-taken
            if taken:
                self.btb.insert(pc, target_addr, "cond")
                self.btb_misses += 1
                # TAGE still trains once the branch is discovered
                predicted = self.tage.predict(pc)
                self.tage.update(pc, True, predicted)
                return BlockPrediction(MispredictKind.BTB_MISS,
                                       fallthrough_addr)
            return _CORRECT
        predicted = self.tage.predict(pc)
        self.tage.update(pc, taken, predicted)
        if predicted != taken:
            self.cond_mispredicts += 1
            wrong = entry.target if predicted else fallthrough_addr
            return BlockPrediction(MispredictKind.COND_MISPREDICT, wrong)
        return _CORRECT

    def _predict_direct(self, pc: int, target_addr: int,
                        fallthrough_addr: int, kind: str) -> BlockPrediction:
        entry = self.btb.lookup(pc)
        if entry is None:
            self.btb.insert(pc, target_addr, kind)
            self.btb_misses += 1
            return BlockPrediction(MispredictKind.BTB_MISS, fallthrough_addr)
        # direct targets never change; a hit is always correct
        return _CORRECT

    def _predict_indirect(self, block: BasicBlock, pc: int, target_addr: int,
                          fallthrough_addr: int) -> BlockPrediction:
        entry = self.btb.lookup(pc)
        if entry is None:
            self.btb.insert(pc, target_addr, "indirect")
            self.btb_misses += 1
            predicted = self.ittage.predict(pc)
            self.ittage.update(pc, target_addr, predicted)
            return BlockPrediction(MispredictKind.BTB_MISS, fallthrough_addr)
        predicted = self.ittage.predict(pc)
        self.ittage.update(pc, target_addr, predicted)
        if predicted is None:
            predicted = entry.target  # BTB last-target fallback
        self.btb.insert(pc, target_addr, "indirect")
        if predicted != target_addr:
            self.indirect_mispredicts += 1
            return BlockPrediction(MispredictKind.INDIRECT_MISPREDICT,
                                   predicted)
        return _CORRECT

    def _predict_return(self, pc: int, target_addr: int,
                        fallthrough_addr: int) -> BlockPrediction:
        entry = self.btb.lookup(pc)
        if entry is None:
            self.btb.insert(pc, target_addr, "return")
            self.btb_misses += 1
            self.ras.pop()  # keep the RAS in sync even on discovery
            return BlockPrediction(MispredictKind.BTB_MISS, fallthrough_addr)
        predicted = self.ras.pop()
        if predicted != target_addr:
            self.return_mispredicts += 1
            return BlockPrediction(MispredictKind.RETURN_MISPREDICT, predicted)
        return _CORRECT
