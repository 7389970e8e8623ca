"""Tests for the PDIP table (geometry, masks, storage arithmetic)."""

import pytest

from repro.core.pdip_table import PDIPTable, PDIP_TABLE_SETS
from repro.simulator.policies import PDIP_ASSOC_FOR_KB


class TestStorageArithmetic:
    """Section 5.4: 512 sets x 8 ways x 87 bits = 43.5 KB exactly."""

    def test_bits_per_way(self):
        assert PDIPTable(assoc=8).bits_per_way == 87

    def test_paper_443_kb(self):
        table = PDIPTable(assoc=8)
        assert table.storage_bits == 356352
        assert table.storage_kb == pytest.approx(43.5)

    def test_size_ladder(self):
        assert PDIPTable(assoc=2).storage_kb == pytest.approx(10.875)
        assert PDIPTable(assoc=4).storage_kb == pytest.approx(21.75)
        assert PDIPTable(assoc=16).storage_kb == pytest.approx(87.0)

    def test_for_budget(self):
        """Every PDIP policy budget gets the largest power-of-two
        associativity whose 512-set table fits in it."""
        for budget_kb, assoc in PDIP_ASSOC_FOR_KB.items():
            assert assoc & (assoc - 1) == 0
            assert PDIPTable(assoc=assoc).storage_kb <= budget_kb
            assert PDIPTable(assoc=2 * assoc).storage_kb > budget_kb

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            PDIPTable(assoc=0)


class TestInsertLookup:
    def test_miss_on_empty(self):
        assert PDIPTable().lookup(100) == []

    def test_insert_then_hit(self):
        table = PDIPTable()
        table.insert(100, 900)
        assert [line for line, _ in table.lookup(100)] == [900]

    def test_duplicate_insert_idempotent(self):
        table = PDIPTable()
        table.insert(100, 900)
        table.insert(100, 900)
        assert len(table.lookup(100)) == 1

    def test_two_targets(self):
        table = PDIPTable()
        table.insert(100, 900)
        table.insert(100, 2000)
        assert {line for line, _ in table.lookup(100)} == {900, 2000}

    def test_third_target_displaces_oldest(self):
        table = PDIPTable(targets_per_entry=2, mask_bits=0)
        table.insert(100, 900)
        table.insert(100, 2000)
        table.insert(100, 3000)
        assert {line for line, _ in table.lookup(100)} == {2000, 3000}

    def test_trigger_type_carried(self):
        table = PDIPTable()
        table.insert(100, 900, trigger_type="last_taken")
        assert table.lookup(100) == [(900, "last_taken")]


class TestMaskCompaction:
    """Section 5.1: following blocks fold into the (default 4-bit) mask."""

    def test_next_block_merges_into_mask(self):
        table = PDIPTable()
        table.insert(100, 900)
        table.insert(100, 901)
        lines = [line for line, _ in table.lookup(100)]
        assert lines == [900, 901]
        assert table.mask_merges == 1
        assert table.target_inserts == 1  # second insert was a mask merge

    @pytest.mark.parametrize("mask_bits", [4, 8])
    def test_mask_reach_is_mask_bits_blocks(self, mask_bits):
        """A target ``mask_bits`` blocks out folds into the last mask bit
        and comes back from ``lookup``; one block further is a target of
        its own."""
        table = PDIPTable(mask_bits=mask_bits)
        table.insert(100, 900)
        table.insert(100, 900 + mask_bits)
        assert table.mask_merges == 1 and table.target_inserts == 1
        assert {l for l, _ in table.lookup(100)} == {900, 900 + mask_bits}
        table2 = PDIPTable(mask_bits=mask_bits)
        table2.insert(100, 900)
        table2.insert(100, 901 + mask_bits)
        assert table2.mask_merges == 0 and table2.target_inserts == 2
        assert {l for l, _ in table2.lookup(100)} == {900, 901 + mask_bits}

    def test_paper_example(self):
        """Figure 8: mask bits 3 and 4 prefetch r, r+3, r+4."""
        table = PDIPTable()
        table.insert(7, 500)
        table.insert(7, 503)
        table.insert(7, 504)
        assert [l for l, _ in table.lookup(7)] == [500, 503, 504]


class TestSetAssociativity:
    def test_conflicting_triggers_evict_lru(self):
        table = PDIPTable(assoc=2, num_sets=PDIP_TABLE_SETS)
        base = 100
        triggers = [base + i * PDIP_TABLE_SETS for i in range(3)]
        table.insert(triggers[0], 900)
        table.insert(triggers[1], 901)
        table.lookup(triggers[0])          # refresh LRU
        table.insert(triggers[2], 902)     # evicts triggers[1]
        assert table.lookup(triggers[0])
        assert not table.lookup(triggers[1])
        assert table.lookup(triggers[2])
        assert table.evictions == 1

    def test_occupancy_bounded(self):
        table = PDIPTable(assoc=2, num_sets=8)
        for i in range(200):
            table.insert(i, 10_000 + i)
        assert table.occupancy() <= 16

    def test_tag_disambiguates_same_set(self):
        table = PDIPTable(assoc=4)
        a, b = 100, 100 + PDIP_TABLE_SETS
        table.insert(a, 900)
        table.insert(b, 901)
        assert [l for l, _ in table.lookup(a)] == [900]
        assert [l for l, _ in table.lookup(b)] == [901]

    def test_hit_and_lookup_counters(self):
        table = PDIPTable()
        table.insert(100, 900)
        table.lookup(100)
        table.lookup(999)
        assert table.lookups == 2
        assert table.hits == 1
