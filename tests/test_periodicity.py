"""Tests for repro.core.periodicity."""

import numpy as np
import pytest

from repro.core import Alphabet, PeriodicityTable, SymbolPeriodicity, SymbolSequence
from repro.core.periodicity import dense_offsets, dense_size, residue_counts, residue_table


@pytest.fixture
def abc() -> Alphabet:
    return Alphabet("abc")


@pytest.fixture
def table(abc) -> PeriodicityTable:
    # Matches the evidence of T = "abcabbabcb" at p=3 (plus a p=4 entry).
    return PeriodicityTable(
        10,
        abc,
        {
            3: {(0, 0): 2, (1, 1): 2},
            4: {(1, 1): 2},
        },
    )


class TestSymbolPeriodicity:
    def test_support(self):
        hit = SymbolPeriodicity(period=3, position=0, symbol_code=0, f2=2, pairs=3)
        assert hit.support == pytest.approx(2 / 3)

    def test_support_zero_pairs(self):
        hit = SymbolPeriodicity(3, 0, 0, 0, 0)
        assert hit.support == 0.0

    def test_symbol_resolution(self, abc):
        hit = SymbolPeriodicity(3, 1, 1, 2, 2)
        assert hit.symbol(abc) == "b"

    def test_ordering_by_fields(self):
        a = SymbolPeriodicity(2, 0, 0, 1, 1)
        b = SymbolPeriodicity(3, 0, 0, 1, 1)
        assert a < b


class TestTableQueries:
    def test_f2_lookup(self, table):
        assert table.f2(3, 0, 0) == 2
        assert table.f2(3, 2, 0) == 0
        assert table.f2(7, 0, 0) == 0

    def test_support_uses_projection_pairs(self, table):
        # (a, p=3, l=0): pairs = ceil(10/3)-1 = 3
        assert table.support(3, 0, 0) == pytest.approx(2 / 3)
        # (b, p=3, l=1): pairs = ceil(9/3)-1 = 2
        assert table.support(3, 1, 1) == pytest.approx(1.0)

    def test_periods_listing(self, table):
        assert table.periods == [3, 4]

    def test_counts_for_returns_copy(self, table):
        counts = table.counts_for(3)
        counts[(9, 9)] = 1
        assert table.counts_for(3) == {(0, 0): 2, (1, 1): 2}

    def test_periodicities_threshold(self, table):
        hits = table.periodicities(0.9)
        assert [(h.period, h.symbol_code) for h in hits] == [(3, 1), (4, 1)]

    def test_periodicities_lower_threshold_nests(self, table):
        strict = set(
            (h.period, h.position, h.symbol_code) for h in table.periodicities(0.9)
        )
        loose = set(
            (h.period, h.position, h.symbol_code) for h in table.periodicities(0.5)
        )
        assert strict <= loose

    def test_periodicities_for_single_period(self, table):
        hits = table.periodicities(0.5, period=3)
        assert {h.symbol_code for h in hits} == {0, 1}

    def test_periodicities_min_pairs_filter(self, table):
        # (b, p=4, l=1) has pairs = ceil(9/4)-1 = 2: filtered at min_pairs=3.
        assert table.periodicities(0.5, period=4, min_pairs=3) == []
        assert len(table.periodicities(0.5, period=4, min_pairs=2)) == 1

    def test_periodicities_rejects_bad_threshold(self, table):
        with pytest.raises(ValueError):
            table.periodicities(0.0)
        with pytest.raises(ValueError):
            table.periodicities(1.5)

    def test_periodicities_rejects_bad_min_pairs(self, table):
        with pytest.raises(ValueError):
            table.periodicities(0.5, min_pairs=0)

    def test_candidate_periods(self, table):
        assert table.candidate_periods(0.9) == [3, 4]
        assert table.candidate_periods(0.67) == [3, 4]

    def test_confidence_is_best_support(self, table):
        assert table.confidence(3) == pytest.approx(1.0)
        assert table.confidence(7) == 0.0

    def test_zero_counts_dropped(self, abc):
        t = PeriodicityTable(10, abc, {3: {(0, 0): 0}})
        assert t.periods == []


class TestImpossibleCells:
    @pytest.mark.parametrize(
        "counts",
        [
            {3: {(0, 5): 2}},  # position not below the period
            {3: {(0, -1): 2}},  # negative position
            {3: {(3, 0): 2}},  # symbol code outside the alphabet
            {3: {(-1, 0): 2}},
            {0: {(0, 0): 2}},  # period below 1
            {-2: {}},
            {3: {(0, 0): -1}},  # negative count
        ],
    )
    def test_constructor_rejects(self, abc, counts):
        with pytest.raises(ValueError):
            PeriodicityTable(10, abc, counts)

    def test_from_blocks_rejects_misshapen_or_repeated_blocks(self, abc):
        good = np.ones((3, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            PeriodicityTable.from_blocks(10, abc, [(3, good)])
        with pytest.raises(ValueError):
            PeriodicityTable.from_blocks(10, abc, [(2, good), (2, good)])

    @pytest.mark.parametrize(
        "period, code, position",
        [(3, 0, 3), (3, 0, -1), (3, 3, 0), (3, -1, 1), (0, 0, 0), (-3, 0, 0), (99, 0, 0)],
    )
    def test_out_of_range_reads_are_empty(self, table, period, code, position):
        # (3, 0, 3) would alias (3, 1, 0) and (3, -1, 1) would alias
        # (2, ...) in the flat layout; neither may be read.
        assert table.f2(period, code, position) == 0
        if not 1 <= period <= 4:
            assert table.counts_for(period) == {}
            assert table.confidence(period) == 0.0
            assert table.periodicities(0.1, period=period) == []


class TestTableEquality:
    def test_equal_tables(self, abc):
        a = PeriodicityTable(10, abc, {3: {(0, 0): 2}})
        b = PeriodicityTable(10, abc, {3: {(0, 0): 2}})
        assert a == b

    def test_zero_entries_ignored_in_equality(self, abc):
        a = PeriodicityTable(10, abc, {3: {(0, 0): 2}, 4: {}})
        b = PeriodicityTable(10, abc, {3: {(0, 0): 2}})
        assert a == b

    def test_unequal_different_counts(self, abc):
        a = PeriodicityTable(10, abc, {3: {(0, 0): 2}})
        b = PeriodicityTable(10, abc, {3: {(0, 0): 1}})
        assert a != b

    def test_repr(self, table):
        assert "PeriodicityTable" in repr(table)


class TestResidueCounts:
    def test_paper_example(self):
        # T = abcabbabcb at p=3: a repeats at l=0 twice, b at l=1 twice.
        codes = SymbolSequence.from_string("abcabbabcb").codes
        block = residue_counts(codes, 3, 3)
        assert block.shape == (3, 3)
        assert block.dtype == np.int64
        assert residue_table(block) == {(0, 0): 2, (1, 1): 2}

    def test_total_is_match_count(self, rng):
        codes = rng.integers(0, 4, 500)
        for p in (1, 7, 250, 499):
            assert residue_counts(codes, 4, p).sum() == np.count_nonzero(
                codes[:-p] == codes[p:]
            )

    def test_period_at_least_length_is_empty(self):
        codes = np.array([0, 0, 1], dtype=np.int64)
        assert not residue_counts(codes, 2, 3).any()
        assert residue_counts(codes, 2, 5).shape == (2, 5)

    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            residue_counts(np.zeros(4, dtype=np.int64), 1, 0)

    def test_residue_table_skips_zeros(self):
        block = np.array([[0, 3], [1, 0]], dtype=np.int64)
        assert residue_table(block) == {(0, 1): 3, (1, 0): 1}
        assert residue_table(np.zeros((2, 2), dtype=np.int64)) == {}

    def test_from_dense_reads_kernel_blocks(self, abc, rng):
        codes = rng.integers(0, 3, 80)
        offsets = dense_offsets(3, 10)
        dense = np.zeros(dense_size(3, 10), dtype=np.int64)
        for p in range(1, 11):
            dense[offsets[p] : offsets[p] + 3 * p] = residue_counts(codes, 3, p).ravel()
        expected = PeriodicityTable.from_blocks(
            80, abc, ((p, residue_counts(codes, 3, p)) for p in range(1, 11))
        )
        assert PeriodicityTable.from_dense(80, abc, dense, 10) == expected
