"""Tests for repro.analysis.harmonics and an engine-parity sweep."""

import numpy as np
import pytest

from repro.analysis import base_periods, group_harmonics
from repro.core import ENGINES, Alphabet, ConvolutionMiner, SpectralMiner, SymbolSequence
from repro.data import PowerConsumptionSimulator, generate_periodic
from repro.streaming import SlidingWindowMiner

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
            online = SlidingWindowMiner(series.alphabet, max_period=n // 2)
            online.extend_codes(series.codes)
            assert online.table() == kernel
