"""Cross-module property-based invariants (hypothesis).

The deep consistency net: relations that must hold between *different*
subsystems, on arbitrary series, independent of the examples the unit
tests pin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_table, exact_self_distances
from repro.core import (
    Alphabet,
    ConvolutionMiner,
    SpectralMiner,
    SymbolSequence,
    mine_patterns,
    pattern_support,
    segment_match_matrix,
    segment_supports,
)
from repro.core.projection import projection_pairs
from repro.streaming import SlidingWindowMiner

from conftest import series_strategy


@settings(max_examples=40, deadline=None)
@given(series=series_strategy(min_size=3, max_size=50))
def test_segment_support_complements_self_distance(series):
    """segment_support(p) * (n-p) + D(p) == n - p for every shift."""
    supports = segment_supports(series)
    distances = exact_self_distances(series, max_shift=supports.size - 1)
    n = series.length
    for p in range(1, supports.size):
        matches = supports[p] * (n - p)
        assert matches + distances[p] == pytest.approx(n - p)


@settings(max_examples=40, deadline=None)
@given(series=series_strategy(min_size=4, max_size=40))
def test_confidence_never_exceeds_segment_evidence_bound(series):
    """A symbol's F2 at (p, l) is bounded by the total matches at p."""
    table = SpectralMiner().periodicity_table(series)
    counts = SpectralMiner().match_counts(series)
    for p in table.periods:
        if p >= counts.shape[1]:
            continue
        for (k, l), f2 in table.counts_for(p).items():
            assert f2 <= counts[k, p]


@settings(max_examples=30, deadline=None)
@given(
    series=series_strategy(min_size=4, max_size=40),
    split=st.integers(1, 39),
)
def test_prefix_online_equals_batch(series, split):
    """Online mining any prefix equals batch mining that prefix."""
    split = min(split, series.length)
    cap = max(series.length // 3, 1)
    online = SlidingWindowMiner(series.alphabet, max_period=cap)
    online.extend_codes(series.codes[:split])
    prefix = series[:split]
    assert online.table() == SpectralMiner(max_period=cap).periodicity_table(prefix)


@settings(max_examples=30, deadline=None)
@given(series=series_strategy(min_size=3, max_size=60))
def test_window_covering_whole_stream_equals_online(series):
    """A sliding window at least as long as the stream forgets nothing."""
    cap = max(series.length // 4, 1)
    window = series.length + 5
    sliding = SlidingWindowMiner(series.alphabet, max_period=cap, window=window)
    online = SlidingWindowMiner(series.alphabet, max_period=cap)
    sliding.extend_codes(series.codes)
    online.extend_codes(series.codes)
    assert sliding.table() == online.table()


@settings(max_examples=30, deadline=None)
@given(series=series_strategy(min_size=6, max_size=40, max_sigma=3))
def test_mined_pattern_supports_recount_exactly(series):
    """Every mined multi-symbol support equals an independent recount."""
    table = ConvolutionMiner().periodicity_table(series)
    for pattern in mine_patterns(series, table, psi=0.4, max_arity=3):
        if pattern.arity < 2:
            continue
        matrix = segment_match_matrix(series, pattern.period)
        assert pattern.support == pytest.approx(pattern_support(pattern, matrix))


@settings(max_examples=30, deadline=None)
@given(series=series_strategy(min_size=2, max_size=40))
def test_reversal_preserves_match_totals(series):
    """Reversing the series preserves every per-symbol shifted-match
    count (pairs just swap roles)."""
    reversed_series = SymbolSequence.from_codes(
        series.codes[::-1].copy(), series.alphabet
    )
    forward = SpectralMiner().match_counts(series)
    backward = SpectralMiner().match_counts(reversed_series)
    np.testing.assert_array_equal(forward, backward)


@settings(max_examples=30, deadline=None)
@given(
    series=series_strategy(min_size=2, max_size=30),
    repeats=st.integers(2, 4),
)
def test_tiling_makes_length_a_perfect_period(series, repeats):
    """Concatenating a series with itself k times makes n a period with
    confidence 1 (every symbol repeats exactly n apart)."""
    tiled = series
    for _ in range(repeats - 1):
        tiled = tiled.concatenated(series)
    table = SpectralMiner(max_period=series.length).periodicity_table(tiled)
    assert table.confidence(series.length) == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(
    series=series_strategy(min_size=4, max_size=36),
    psi=st.floats(0.05, 1.0),
    min_pairs=st.integers(1, 4),
)
def test_periodicities_are_exactly_the_thresholded_table(series, psi, min_pairs):
    """periodicities(psi) is precisely the set of table cells whose
    support clears psi — no more, no fewer — in (period, position,
    symbol) order, and candidate_periods and confidence agree with the
    same per-cell loop."""
    table = brute_force_table(series)
    reported = [
        (h.period, h.position, h.symbol_code)
        for h in table.periodicities(psi, min_pairs=min_pairs)
    ]
    expected = set()
    best = {}
    for p in table.periods:
        for (k, l), f2 in table.counts_for(p).items():
            # Definition 1 as F2 >= psi * pairs: dividing first can round
            # the other way when psi sits one ulp from F2 / pairs.
            pairs = projection_pairs(table.n, p, l)
            if pairs >= min_pairs and f2 >= psi * pairs:
                expected.add((p, l, k))
            best[p] = max(best.get(p, 0.0), table.support(p, k, l))
    assert reported == sorted(expected)
    assert table.candidate_periods(psi, min_pairs) == sorted({p for p, _, _ in expected})
    for p in range(series.length + 1):
        assert table.confidence(p) == pytest.approx(best.get(p, 0.0))


@settings(max_examples=20, deadline=None)
@given(
    series=series_strategy(min_size=8, max_size=40),
    block=st.integers(2, 16),
)
def test_out_of_core_blocking_invariance(series, block):
    """Any block size gives the identical out-of-core table."""
    from repro.streaming import ChunkedReader

    cap = max(series.length // 3, 1)
    miner = SpectralMiner(max_period=cap)
    reader = ChunkedReader(series, block_size=block)
    streamed = miner.periodicity_table_out_of_core(iter(reader), series)
    assert streamed == miner.periodicity_table(series)
