"""Tests for the TAGE conditional predictor and its folded history."""

import functools
import random

from repro.branch.ittage import ITTAGEPredictor
from repro.branch.tage import GlobalHistory, TAGEPredictor


def _fold(window, bits):
    """Fold of a history window (oldest bit first): the bit of age ``a``
    lands at position ``a % bits``."""
    value = 0
    for age, bit in enumerate(reversed(window)):
        value ^= bit << (age % bits)
    return value


def _registers(history):
    """(h, bits, live value) of every folded register of ``history``."""
    return [(row[1], row[3], row[0])
            for rows in (history.idx_rows, history.tag1_rows,
                         history.tag2_rows)
            for row in rows]


class TestFoldedHistory:
    """The folded registers of :class:`GlobalHistory`, which TAGE and
    ITTAGE both run."""

    def test_incremental_fold_is_window_function(self):
        """A register depends only on the last ``h`` bits: replaying just
        the current window into a fresh history gives the same value as
        the long incremental history."""
        length = 13
        hist = GlobalHistory(1, length, length, index_bits=5, tag_bits=6)
        window = [0] * length  # current window, oldest first
        rng = random.Random(3)
        for _ in range(200):
            bit = rng.randint(0, 1)
            hist.push((bit,))
            window = window[1:] + [bit]
            check = GlobalHistory(1, length, length, index_bits=5,
                                  tag_bits=6)
            check.push(window)
            assert _registers(hist) == _registers(check)

    def test_value_bounded(self):
        hist = GlobalHistory(1, 40, 40, index_bits=7, tag_bits=8)
        for i in range(500):
            hist.push((i & 1, (i >> 1) & 1))
            for _, bits, value in _registers(hist):
                assert 0 <= value < (1 << bits)

    def test_live_registers_match_predictor_history(self):
        """After random traffic through both predictors, every live
        register equals the fold of the last ``h`` bits of that
        predictor's history, at its table's length and its fold's
        width."""
        rng = random.Random(11)
        pcs = [rng.randrange(1 << 20) * 4 for _ in range(64)]
        tage = TAGEPredictor(seed=1)
        ittage = ITTAGEPredictor(seed=1)
        for _ in range(3000):
            pc = rng.choice(pcs)
            taken = rng.random() < 0.6
            tage.update(pc, taken, tage.predict(pc))
            target = rng.choice((0x1000, 0x2040, 0x8880, 0x31000, 0xBEEF0))
            ittage.update(pc, target, ittage.predict(pc))
        for predictor in (tage, ittage):
            history = predictor.history
            widths = (predictor.log_entries, predictor.tag_bits,
                      predictor.tag_bits - 1)
            for rows, bits in zip((history.idx_rows, history.tag1_rows,
                                   history.tag2_rows), widths):
                assert len(rows) == predictor.num_tables
                for h, row in zip(history.lengths, rows):
                    assert row[0] == _fold(history.ghist[-h:], bits)


@functools.lru_cache(maxsize=None)
def _counter_steps():
    """(counter, before, taken, after) for every update of a TAGE driven
    by biased and random branches; ``counter`` is "provider" when a
    tagged entry provided the prediction, else "base"."""
    rng = random.Random(5)
    bias = {rng.randrange(1 << 20) * 4: rng.choice((0.02, 0.5, 0.98))
            for _ in range(64)}
    pcs = sorted(bias)
    tage = TAGEPredictor(num_tables=4, log_entries=7, seed=1)
    steps = []
    for _ in range(6000):
        pc = rng.choice(pcs)
        taken = rng.random() < bias[pc]
        predicted = tage.predict(pc)
        if tage._provider is None:
            read = (lambda: tage._base[tage._base_idx])
            counter = "base"
        else:
            entry = tage._tables[tage._provider][tage._provider_idx]
            read = (lambda: entry.ctr)
            counter = "provider"
        before = read()
        tage.update(pc, taken, predicted)
        steps.append((counter, before, taken, read()))
    return tuple(steps)


class TestSatUpdate:
    """``TAGEPredictor.update`` moves the provider's 3-bit ``ctr`` (or,
    with no provider, the 2-bit base counter) one step toward the
    outcome, saturating in [-4, 3] (base: [-2, 1]). Each case checks
    every such step of a trained predictor, for both counters."""

    BOUNDS = {"provider": (-4, 3), "base": (-2, 1)}

    def _check(self, case):
        for counter, (lo, hi) in self.BOUNDS.items():
            steps = [(before, taken, after)
                     for kind, before, taken, after in _counter_steps()
                     if kind == counter and case(before, taken, lo, hi)]
            assert steps, "the traffic never exercised this %s case" % (
                counter,)
            for before, taken, after in steps:
                want = min(before + 1, hi) if taken else max(before - 1, lo)
                assert after == want, (counter, before, taken, after)

    def test_increments(self):
        self._check(lambda before, taken, lo, hi: taken and before < hi)

    def test_saturates_high(self):
        self._check(lambda before, taken, lo, hi: taken and before == hi)

    def test_decrements(self):
        self._check(lambda before, taken, lo, hi: not taken and before > lo)

    def test_saturates_low(self):
        self._check(lambda before, taken, lo, hi: not taken and before == lo)


class TestTAGELearning:
    def _train(self, outcomes, pc=0x4000, rounds=1):
        tage = TAGEPredictor(num_tables=4, log_entries=7, seed=1)
        correct = 0
        total = 0
        for r in range(rounds):
            for taken in outcomes:
                pred = tage.predict(pc)
                if r == rounds - 1:
                    total += 1
                    correct += (pred == taken)
                tage.update(pc, taken, pred)
        return correct / total

    def test_learns_always_taken(self):
        assert self._train([True] * 50, rounds=2) > 0.95

    def test_learns_always_not_taken(self):
        assert self._train([False] * 50, rounds=2) > 0.95

    def test_learns_alternating_pattern(self):
        """T,NT,T,NT is pure history correlation — bimodal can't get it,
        the tagged tables must."""
        pattern = [True, False] * 40
        assert self._train(pattern, rounds=6) > 0.9

    def test_learns_short_loop_pattern(self):
        # 3 taken, 1 not-taken (a 4-iteration loop)
        pattern = ([True, True, True, False]) * 25
        assert self._train(pattern, rounds=6) > 0.85

    def test_mispredict_rate_tracked(self):
        tage = TAGEPredictor(num_tables=4, log_entries=7, seed=1)
        for taken in [True, False] * 30:
            pred = tage.predict(0x100)
            tage.update(0x100, taken, pred)
        assert tage.predictions == 60
        assert 0.0 <= tage.mispredict_rate() <= 1.0

    def test_distinct_branches_independent(self):
        tage = TAGEPredictor(num_tables=4, log_entries=8, seed=1)
        for _ in range(100):
            for pc, taken in ((0x1000, True), (0x2000, False)):
                pred = tage.predict(pc)
                tage.update(pc, taken, pred)
        assert tage.predict(0x1000) is True
        tage.update(0x1000, True, True)
        assert tage.predict(0x2000) is False

    def test_history_lengths_geometric(self):
        tage = TAGEPredictor(num_tables=6, min_history=4, max_history=128)
        lens = tage.history.lengths
        assert lens[0] == 4
        assert lens[-1] == 128
        assert lens == sorted(lens)

    def test_storage_positive(self):
        assert TAGEPredictor().storage_kb > 0
