"""Tests for repro.analysis.harmonics, the bitops substrate, and an
engine-parity sweep."""

import numpy as np
import pytest

from repro.analysis import base_periods, group_harmonics
from repro.convolution.bitops import (
    pack_positions,
    set_bit_positions,
    shift_right,
    shifted_self_and,
    word_and,
)
from repro.convolution import bit_positions, pack_bits
from repro.core import ENGINES, Alphabet, ConvolutionMiner, SpectralMiner, SymbolSequence
from repro.data import PowerConsumptionSimulator, generate_periodic
from repro.streaming import OnlineMiner

from conftest import witness_table


class TestGroupHarmonics:
    def test_multiples_collapse_to_base(self):
        conf = {7: 1.0, 14: 1.0, 21: 1.0, 28: 0.95}.__getitem__
        families = group_harmonics([7, 14, 21, 28], conf)
        assert len(families) == 1
        assert families[0].base == 7
        assert families[0].harmonics == (14, 21, 28)

    def test_stronger_multiple_stays_a_base(self):
        # 14 is much stronger than 7: it is *not* explained by 7.
        conf = {7: 0.4, 14: 0.9}.__getitem__
        families = group_harmonics([7, 14], conf, tolerance=0.1)
        bases = {f.base for f in families}
        assert bases == {7, 14}

    def test_independent_periods(self):
        conf = {5: 0.9, 7: 0.8}.__getitem__
        families = group_harmonics([5, 7], conf)
        assert {f.base for f in families} == {5, 7}

    def test_sorted_by_confidence(self):
        conf = {3: 0.5, 5: 0.9}.__getitem__
        families = group_harmonics([3, 5], conf)
        assert families[0].base == 5

    def test_members_property(self):
        conf = {4: 1.0, 8: 1.0}.__getitem__
        family = group_harmonics([4, 8], conf)[0]
        assert family.members == (4, 8)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            group_harmonics([3], lambda p: 1.0, tolerance=2.0)

    def test_rejects_non_positive_periods(self):
        with pytest.raises(ValueError):
            group_harmonics([0], lambda p: 1.0)


class TestBasePeriods:
    def test_synthetic_collapse(self, rng):
        # A base pattern with no perfect sub-period for any symbol (each
        # symbol's two occurrences are 5 and 7 apart, never a divisor of 12).
        pattern = np.array([0, 1, 2, 3, 4, 5, 1, 0, 3, 2, 5, 4])
        series = generate_periodic(600, 12, 6, rng=rng, pattern=pattern)
        table = SpectralMiner(max_period=60).periodicity_table(series)
        families = base_periods(table, psi=0.95)
        assert families[0].base == 12
        assert set(families[0].harmonics) >= {24, 36, 48}

    def test_power_weekly_family(self, rng):
        series = PowerConsumptionSimulator().series(rng)
        table = SpectralMiner(psi=0.5, max_period=40).periodicity_table(series)
        families = base_periods(table, psi=0.6)
        weekly = next((f for f in families if f.base == 7), None)
        assert weekly is not None
        assert all(h % 7 == 0 for h in weekly.harmonics)


class TestBitops:
    def test_pack_matches_bigint(self, rng):
        positions = np.unique(rng.integers(0, 500, size=60))
        words = pack_positions(positions, 500)
        as_int = pack_bits(positions, 500)
        assert set_bit_positions(words).tolist() == bit_positions(as_int).tolist()

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack_positions(np.array([70]), 64)

    def test_shift_right_matches_int_shift(self, rng):
        positions = np.unique(rng.integers(0, 300, size=40))
        words = pack_positions(positions, 300)
        as_int = pack_bits(positions, 300)
        for bits in (0, 1, 13, 64, 65, 200, 400):
            shifted = set_bit_positions(shift_right(words, bits)).tolist()
            assert shifted == bit_positions(as_int >> bits).tolist()

    def test_shift_rejects_negative(self):
        with pytest.raises(ValueError):
            shift_right(np.zeros(1, dtype=np.uint64), -1)

    def test_word_and(self, rng):
        a = rng.integers(0, 2**63, size=8, dtype=np.int64).astype(np.uint64)
        b = rng.integers(0, 2**63, size=8, dtype=np.int64).astype(np.uint64)
        np.testing.assert_array_equal(word_and(a, b), a & b)

    def test_shifted_self_and_matches_bigint(self, rng):
        positions = np.unique(rng.integers(0, 400, size=80))
        words = pack_positions(positions, 400)
        as_int = pack_bits(positions, 400)
        for bits in (1, 7, 64, 100):
            expected = bit_positions(as_int & (as_int >> bits)).tolist()
            assert shifted_self_and(words, bits).tolist() == expected

    def test_empty_array(self):
        assert set_bit_positions(np.zeros(4, dtype=np.uint64)).size == 0


class TestWordarrayEngine:
    def test_engine_parity(self, rng):
        for _ in range(5):
            n = int(rng.integers(4, 120))
            sigma = int(rng.integers(2, 6))
            series = SymbolSequence.from_codes(
                rng.integers(0, sigma, size=n), Alphabet.of_size(sigma)
            )
            bitand = ConvolutionMiner("bitand").witness_sets(series)
            wordarray = ConvolutionMiner("wordarray").witness_sets(series)
            assert bitand.keys() == wordarray.keys()
            for p in bitand:
                assert bitand[p].tolist() == wordarray[p].tolist()


class TestEngineParity:
    def test_engine_parity(self, rng):
        """Kernel table == each engine's decoded witnesses == streaming."""
        for _ in range(5):
            n = int(rng.integers(4, 120))
            sigma = int(rng.integers(2, 6))
            series = SymbolSequence.from_codes(
                rng.integers(0, sigma, size=n), Alphabet.of_size(sigma)
            )
            kernel = ConvolutionMiner().periodicity_table(series)
            for engine in ENGINES:
                assert witness_table(engine, series) == kernel
            online = OnlineMiner(series.alphabet, max_period=n // 2)
            online.extend_codes(series.codes)
            assert online.table() == kernel
