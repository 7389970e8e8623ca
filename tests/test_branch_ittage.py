"""Tests for the ITTAGE indirect target predictor."""

import pytest

from repro.branch.ittage import ITTAGEPredictor


def train(predictor, pc, targets, rounds=1, measure_last=True):
    correct = total = 0
    for r in range(rounds):
        for target in targets:
            pred = predictor.predict(pc)
            if not measure_last or r == rounds - 1:
                total += 1
                correct += (pred == target)
            predictor.update(pc, target, pred)
    return correct / total


class TestITTAGE:
    def test_cold_predicts_none(self):
        it = ITTAGEPredictor(seed=1)
        assert it.predict(0x5000) is None

    def test_learns_monomorphic(self):
        it = ITTAGEPredictor(seed=1)
        acc = train(it, 0x5000, [0x9000] * 30, rounds=2)
        assert acc > 0.95

    def test_base_last_target_fallback(self):
        it = ITTAGEPredictor(seed=1)
        pred = it.predict(0x5000)
        it.update(0x5000, 0x9000, pred)
        assert it.predict(0x5000) == 0x9000

    def test_learns_alternating_targets(self):
        """A,B,A,B is history-correlated — the tagged tables must learn it
        well beyond the 50% a last-target predictor achieves."""
        it = ITTAGEPredictor(seed=1)
        acc = train(it, 0x5000, [0x9000, 0xA000] * 30, rounds=8)
        assert acc > 0.75

    def test_distinct_sites_independent(self):
        it = ITTAGEPredictor(seed=1)
        for _ in range(60):
            for pc, target in ((0x5000, 0x9000), (0x6000, 0xB000)):
                pred = it.predict(pc)
                it.update(pc, target, pred)
        assert it.predict(0x5000) == 0x9000
        it.update(0x5000, 0x9000, 0x9000)
        assert it.predict(0x6000) == 0xB000

    def test_mispredict_counting(self):
        it = ITTAGEPredictor(seed=1)
        pred = it.predict(0x100)
        it.update(0x100, 0x200, pred)  # cold: None != 0x200 -> mispredict
        assert it.mispredicts == 1
        assert it.predictions == 1

    def test_adapts_to_target_change(self):
        it = ITTAGEPredictor(seed=1)
        train(it, 0x5000, [0x9000] * 20)
        acc = train(it, 0x5000, [0xC000] * 30, rounds=2)
        assert acc > 0.8

    def test_storage_positive(self):
        assert ITTAGEPredictor().storage_kb > 0

    def test_history_lengths_geometric(self):
        it = ITTAGEPredictor(num_tables=5, min_history=4, max_history=64)
        assert it.history.lengths[0] == 4
        assert it.history.lengths[-1] == 64
        assert it.history.lengths == sorted(it.history.lengths)
