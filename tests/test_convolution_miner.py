"""Tests for repro.core.convolution_miner — Fig. 2 of the paper."""

import numpy as np
import pytest

from repro.baselines import brute_force_table
from repro.core import ENGINES, ConvolutionMiner, SpectralMiner, SymbolSequence

from conftest import random_series


class TestWitnessSets:
    def test_paper_acccabb_p1(self, mapping_series):
        witnesses = ConvolutionMiner().witness_sets(mapping_series)
        assert sorted(witnesses[1].tolist()) == [1, 11, 14]

    def test_paper_acccabb_p4(self, mapping_series):
        witnesses = ConvolutionMiner(max_period=4).witness_sets(mapping_series)
        assert witnesses[4].tolist() == [6]

    def test_paper_abcabbabcb_p3(self, paper_series):
        witnesses = ConvolutionMiner().witness_sets(paper_series)
        assert sorted(witnesses[3].tolist()) == [7, 9, 16, 18]

    def test_paper_cabccbacd_p4(self):
        series = SymbolSequence.from_string("cabccbacd")
        witnesses = ConvolutionMiner().witness_sets(series)
        assert sorted(witnesses[4].tolist()) == [6, 18]

    def test_engines_agree(self, paper_series):
        bitand = ConvolutionMiner(engine="bitand").witness_sets(paper_series)
        kronecker = ConvolutionMiner(engine="kronecker").witness_sets(paper_series)
        assert bitand.keys() == kronecker.keys()
        for p in bitand:
            assert bitand[p].tolist() == kronecker[p].tolist()

    def test_engines_agree_randomised(self, rng):
        for _ in range(5):
            series = random_series(rng, int(rng.integers(4, 60)), int(rng.integers(2, 6)))
            bitand = ConvolutionMiner(engine="bitand").witness_sets(series)
            kronecker = ConvolutionMiner(engine="kronecker").witness_sets(series)
            assert bitand.keys() == kronecker.keys()
            for p in bitand:
                assert bitand[p].tolist() == kronecker[p].tolist()

    def test_empty_for_tiny_series(self):
        series = SymbolSequence.from_string("a")
        assert ConvolutionMiner().witness_sets(series) == {}

    def test_max_period_caps_output(self, paper_series):
        witnesses = ConvolutionMiner(max_period=2).witness_sets(paper_series)
        assert all(p <= 2 for p in witnesses)

    def test_default_max_period_is_half_n(self, paper_series):
        witnesses = ConvolutionMiner().witness_sets(paper_series)
        assert max(witnesses) <= paper_series.length // 2

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            ConvolutionMiner(engine="quantum")

    def test_rejects_bad_max_period(self, paper_series):
        with pytest.raises(ValueError):
            ConvolutionMiner(max_period=0).witness_sets(paper_series)

    def test_kronecker_refuses_oversized_input(self, rng):
        series = random_series(rng, 20_000, 3)
        with pytest.raises(ValueError, match="bitand"):
            ConvolutionMiner(engine="kronecker").witness_sets(series)

    def test_kronecker_refusal_states_product_and_limit(self, rng):
        series = random_series(rng, 20_000, 3)
        with pytest.raises(ValueError) as excinfo:
            ConvolutionMiner(engine="kronecker").witness_sets(series)
        message = str(excinfo.value)
        assert "60,000" in message  # sigma*n, the quantity the limit caps
        assert "30,000" in message  # the limit itself
        assert "3,600,000,000" in message  # the product's bit size
        assert message.endswith("use engine='bitand' or the SpectralMiner")


@pytest.mark.parametrize("max_period", [0, -3])
@pytest.mark.parametrize("miner", [ConvolutionMiner, SpectralMiner])
def test_bad_max_period_rejected_at_construction(miner, max_period):
    with pytest.raises(ValueError, match="max_period must be >= 1"):
        miner(max_period=max_period)


class TestPeriodicityTable:
    def test_matches_brute_force_on_paper_example(self, paper_series):
        mined = ConvolutionMiner().periodicity_table(paper_series)
        oracle = brute_force_table(paper_series)
        assert mined == oracle

    def test_matches_brute_force_randomised(self, rng):
        for _ in range(8):
            series = random_series(rng, int(rng.integers(5, 80)), int(rng.integers(2, 7)))
            assert ConvolutionMiner().periodicity_table(series) == brute_force_table(series)

    def test_constant_series_everything_periodic(self):
        series = SymbolSequence.from_codes([0] * 12, alphabet=__import__("repro").Alphabet("ab"))
        table = ConvolutionMiner().periodicity_table(series)
        for p in range(1, 7):
            assert table.confidence(p) == pytest.approx(1.0)

    def test_alternating_series(self):
        series = SymbolSequence.from_string("ababababab")
        table = ConvolutionMiner().periodicity_table(series)
        assert table.confidence(2) == pytest.approx(1.0)
        assert table.confidence(3) == 0.0

    def test_single_symbol_alphabet(self):
        series = SymbolSequence.from_string("aaaaaa")
        table = ConvolutionMiner().periodicity_table(series)
        assert table.confidence(1) == pytest.approx(1.0)

    def test_tiny_series(self):
        for text in ("a", "ab", "aa", "abc"):
            series = SymbolSequence.from_string(text)
            assert ConvolutionMiner().periodicity_table(series) == brute_force_table(series)

    def test_table_does_not_depend_on_engine(self, rng):
        series = random_series(rng, 300, 4)
        tables = [
            ConvolutionMiner(engine=engine, max_period=40).periodicity_table(series)
            for engine in ENGINES
        ]
        assert all(table == tables[0] for table in tables)

    def test_kronecker_size_limit_does_not_apply_to_tables(self, rng):
        series = random_series(rng, 20_000, 3)
        table = ConvolutionMiner(engine="kronecker", max_period=5).periodicity_table(series)
        assert table == brute_force_table(series, max_period=5)

