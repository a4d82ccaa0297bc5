"""Edge-case sweep: degenerate inputs through every public entry point.

Empty, single-symbol, constant, two-symbol, and unary-alphabet series
must either work with sensible semantics or fail with a clear
ValueError — never crash with an internal error.
"""

import numpy as np
import pytest

from repro import ConvolutionMiner, SpectralMiner, mine
from repro.analysis import base_periods, describe_period, score_periodicities
from repro.core import segment_supports
from repro.baselines import (
    Berberidis,
    HanPartialMiner,
    MaHellerstein,
    MaxSubpatternMiner,
    PeriodicTrends,
    WarpingDetector,
    brute_force_table,
)
from repro.core import ENGINES, Alphabet, SymbolSequence, projection, segment_periodicities
from repro.streaming import SlidingWindowMiner

from conftest import witness_table

EMPTY = SymbolSequence.from_codes([], Alphabet("ab"))
SINGLE = SymbolSequence.from_string("a", Alphabet("ab"))
PAIR = SymbolSequence.from_string("ab")
CONSTANT = SymbolSequence.from_string("aaaaaaaa", Alphabet("ab"))
UNARY = SymbolSequence.from_codes([0] * 6, Alphabet("a"))


class TestMiners:
    @pytest.mark.parametrize("series", [EMPTY, SINGLE], ids=["empty", "single"])
    def test_miners_yield_empty_tables(self, series):
        assert SpectralMiner().periodicity_table(series).periods == []
        assert ConvolutionMiner().periodicity_table(series).periods == []
        assert brute_force_table(series).periods == []

    def test_pair_series(self):
        table = SpectralMiner().periodicity_table(PAIR)
        assert table.confidence(1) == 0.0  # a != b at shift 1

    def test_constant_series_every_period_perfect(self):
        table = ConvolutionMiner().periodicity_table(CONSTANT)
        for p in range(1, 5):
            assert table.confidence(p) == pytest.approx(1.0)

    def test_unary_alphabet(self):
        table = SpectralMiner().periodicity_table(UNARY)
        assert table.confidence(1) == pytest.approx(1.0)
        result = mine(UNARY, psi=0.9)
        assert result.patterns

    def test_mine_on_tiny_series(self):
        result = mine(PAIR, psi=0.5)
        assert result.patterns == ()


class TestCoreHelpers:
    def test_projection_of_short_series(self):
        assert projection(PAIR, 5, 1).to_string() == "b"

    def test_segment_supports_tiny(self):
        assert segment_supports(SINGLE).tolist() == [1.0]
        assert segment_supports(EMPTY).tolist() == [1.0]

    def test_segment_periodicities_tiny(self):
        assert segment_periodicities(PAIR, psi=0.5) == []


class TestAnalysis:
    def test_base_periods_empty_table(self):
        table = SpectralMiner().periodicity_table(EMPTY)
        assert base_periods(table, psi=0.5) == []

    def test_score_periodicities_constant(self):
        table = SpectralMiner().periodicity_table(CONSTANT)
        scored = score_periodicities(CONSTANT, table, psi=0.9)
        # Every score exists and lies in [0, 1].
        assert scored
        assert all(0.0 <= s.p_value <= 1.0 for s in scored)

    def test_describe_period_one_sample(self):
        assert describe_period(1, 3600).seconds == 3600


class TestBaselines:
    def test_trends_rejects_tiny(self):
        with pytest.raises(ValueError):
            PeriodicTrends(method="exact").analyse(SINGLE)

    def test_trends_on_pair(self):
        result = PeriodicTrends(method="exact").analyse(PAIR)
        assert result.ranked_periods == (1,)

    def test_ma_hellerstein_empty_and_tiny(self):
        assert MaHellerstein().candidates(SINGLE) == []
        assert MaHellerstein().candidates(CONSTANT) != None  # noqa: E711

    def test_berberidis_tiny(self):
        assert Berberidis().candidate_periods(PAIR) == []

    def test_han_miners_tiny(self):
        assert HanPartialMiner().mine(SINGLE, 3) == []
        assert MaxSubpatternMiner().mine(SINGLE, 3) == []

    def test_warping_rejects_degenerate(self):
        with pytest.raises(ValueError):
            WarpingDetector().confidence(SINGLE, 1)

    def test_warping_on_pair(self):
        assert 0.0 <= WarpingDetector(band=1).confidence(PAIR, 1) <= 1.0


class TestStreaming:
    def test_online_miner_no_input(self):
        miner = SlidingWindowMiner(Alphabet("ab"), max_period=4)
        assert miner.table().periods == []
        assert miner.periodicities(0.5) == []

    def test_online_miner_single_symbol(self):
        miner = SlidingWindowMiner(Alphabet("ab"), max_period=4)
        miner.append("a")
        assert miner.n == 1
        assert miner.table().periods == []

    def test_sliding_window_no_input(self):
        miner = SlidingWindowMiner(Alphabet("ab"), max_period=2, window=5)
        assert miner.size == 0
        assert miner.table().periods == []

    def test_sliding_window_eviction_of_everything(self):
        miner = SlidingWindowMiner(Alphabet("ab"), max_period=2, window=3)
        miner.extend_codes([0, 0, 0, 1, 1, 1])
        # Window now holds only 'b's; period-1 evidence must reflect that.
        table = miner.table()
        assert table.f2(1, 1, 0) == 2
        assert table.f2(1, 0, 0) == 0


class TestEngineParity:
    """Degenerate inputs: the counting kernel, the decoded witness sets
    of every witness engine, and the streaming miner agree."""

    @staticmethod
    def _streamed(series):
        cap = max(series.length // 2, 1)
        miner = SlidingWindowMiner(series.alphabet, max_period=cap)
        miner.extend_codes(series.codes)
        return miner.table()

    @pytest.mark.parametrize("series", [EMPTY, SINGLE], ids=["empty", "single"])
    def test_degenerate_series_yield_empty_tables(self, series):
        for engine in ENGINES:
            assert ConvolutionMiner(engine=engine).witness_sets(series) == {}
            assert ConvolutionMiner(engine=engine).periodicity_table(series).periods == []
        assert self._streamed(series).periods == []

    def test_unary_alphabet_engines_agree(self):
        kernel = ConvolutionMiner().periodicity_table(UNARY)
        for engine in ENGINES:
            assert witness_table(engine, UNARY) == kernel
        assert self._streamed(UNARY) == kernel

    def test_pair_and_constant_engines_agree(self):
        for series in (PAIR, CONSTANT):
            kernel = ConvolutionMiner().periodicity_table(series)
            for engine in ENGINES:
                assert witness_table(engine, series) == kernel
            assert self._streamed(series) == kernel


class TestStreamingEdges:
    def test_extend_codes_with_empty_block_is_a_noop(self):
        online = SlidingWindowMiner(Alphabet("ab"), max_period=4)
        online.extend_codes([])
        assert online.n == 0
        assert online.table().periods == []
        windowed = SlidingWindowMiner(Alphabet("ab"), max_period=2, window=3)
        windowed.extend_codes([])
        assert windowed.size == 0

    def test_extend_codes_empty_between_blocks_preserves_evidence(self):
        miner = SlidingWindowMiner(Alphabet("ab"), max_period=4)
        miner.extend_codes([0, 1, 0, 1])
        before = miner.table()
        miner.extend_codes([])
        assert miner.table() == before

    def test_streaming_agrees_with_kernel_table(self):
        rng = np.random.default_rng(12)
        codes = rng.integers(0, 3, size=240)
        alphabet = Alphabet("abc")
        miner = SlidingWindowMiner(alphabet, max_period=16)
        miner.extend_codes(codes)
        streamed = miner.table()
        series = SymbolSequence.from_codes(codes, alphabet)
        assert ConvolutionMiner(max_period=16).periodicity_table(series) == streamed


class TestConvolutionSubstrate:
    def test_fft_of_length_one(self):
        from repro.convolution import fft, ifft

        np.testing.assert_allclose(fft([5.0]), [5.0 + 0j])
        np.testing.assert_allclose(ifft([5.0]), [5.0 + 0j])

    def test_witnesses_of_minimal_series(self):
        witnesses = ConvolutionMiner().witness_sets(PAIR)
        assert witnesses == {}

    def test_blocked_match_counts_single_symbol(self):
        from repro.convolution import blocked_match_counts

        counts = blocked_match_counts([np.array([0])], sigma=1, max_lag=0)
        assert counts.tolist() == [[1]]
