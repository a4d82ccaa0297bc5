"""Chunked-ingestion equivalence: every chunking == per-symbol feeding.

The vectorised streaming layer keeps a hard guarantee: how a stream is
split into blocks never changes the evidence.  These tests drive the
streaming miner (whole stream and sliding window) and the drift monitor
with random chunkings — including chunk boundaries straddling window
evictions, chunks larger than the window itself and blocks the miner
splits internally — and assert bit-for-bit equality of the evidence
(and of the fired ``DriftEvent`` sequences) against per-symbol feeding
and against batch mining.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Alphabet, SpectralMiner, SymbolSequence
from repro.core.periodicity import PeriodicityTable, dense_offsets, dense_size
from repro.streaming import (
    ChunkedReader,
    DenseCountStore,
    PeriodicityMonitor,
    SlidingWindowMiner,
)
from repro.streaming.window import INGEST_BLOCK


def _chunks(codes: np.ndarray, sizes: list[int]):
    """Split ``codes`` into consecutive chunks with the given sizes."""
    position = 0
    for size in sizes:
        if position >= codes.size:
            return
        yield codes[position : position + size]
        position += size
    if position < codes.size:
        yield codes[position:]


block_sizes = st.lists(st.integers(1, 50), min_size=1, max_size=20)


class TestOnlineChunked:
    @settings(max_examples=40, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 3), min_size=1, max_size=150),
        cap=st.integers(1, 20),
        sizes=block_sizes,
    )
    def test_any_chunking_equals_per_symbol(self, codes, cap, sizes):
        codes = np.array(codes, dtype=np.int64)
        alphabet = Alphabet.of_size(4)
        chunked = SlidingWindowMiner(alphabet, max_period=cap)
        for chunk in _chunks(codes, sizes):
            chunked.extend_codes(chunk)
        scalar = SlidingWindowMiner(alphabet, max_period=cap)
        for code in codes:
            scalar.append_code(int(code))
        assert chunked.table() == scalar.table()
        assert chunked.n == scalar.n == codes.size

    def test_one_shot_equals_batch(self, rng):
        codes = rng.integers(0, 5, size=400).astype(np.int64)
        alphabet = Alphabet.of_size(5)
        miner = SlidingWindowMiner(alphabet, max_period=30)
        miner.extend_codes(codes)
        series = SymbolSequence.from_codes(codes, alphabet)
        assert miner.table() == SpectralMiner(max_period=30).periodicity_table(series)

    def test_confidence_reads_live_counts(self, rng):
        miner = SlidingWindowMiner(Alphabet.of_size(4), max_period=12)
        miner.extend_codes(rng.integers(0, 4, size=300).astype(np.int64))
        snapshot = miner.table()
        for period in (1, 4, 7, 12):
            assert miner.confidence(period) == pytest.approx(
                snapshot.confidence(period)
            )

    def test_rejects_out_of_range_chunk(self):
        miner = SlidingWindowMiner(Alphabet.of_size(3), max_period=4)
        with pytest.raises(ValueError):
            miner.extend_codes(np.array([0, 1, 7], dtype=np.int64))
        with pytest.raises(ValueError):
            miner.extend_codes(np.array([-1], dtype=np.int64))


class TestWindowChunked:
    @settings(max_examples=40, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 2), min_size=1, max_size=150),
        window=st.none() | st.integers(5, 30),
        cap=st.integers(1, 12),
        sizes=block_sizes,
    )
    def test_any_chunking_equals_per_symbol(self, codes, window, cap, sizes):
        if window is not None:
            cap = min(cap, window - 1)
        codes = np.array(codes, dtype=np.int64)
        alphabet = Alphabet.of_size(3)
        chunked = SlidingWindowMiner(alphabet, max_period=cap, window=window)
        for chunk in _chunks(codes, sizes):
            chunked.extend_codes(chunk)
        scalar = SlidingWindowMiner(alphabet, max_period=cap, window=window)
        for code in codes:
            scalar.append_code(int(code))
        assert chunked.table() == scalar.table()
        assert chunked.n == scalar.n and chunked.start == scalar.start

    def test_chunk_straddles_evictions(self, rng):
        # Fill the window, then feed a chunk that evicts mid-chunk.
        alphabet = Alphabet.of_size(3)
        window, cap = 20, 8
        head = rng.integers(0, 3, size=window).astype(np.int64)
        tail = rng.integers(0, 3, size=15).astype(np.int64)
        miner = SlidingWindowMiner(alphabet, max_period=cap, window=window)
        miner.extend_codes(head)
        miner.extend_codes(tail)  # one chunk, 15 evictions inside it
        recent = np.concatenate([head, tail])[-window:]
        batch = SpectralMiner(max_period=cap).periodicity_table(
            SymbolSequence.from_codes(recent, alphabet)
        )
        assert miner.table() == batch

    def test_chunk_larger_than_window(self, rng):
        # A single chunk several windows long: most of it is both added
        # and evicted within the same ingestion sweep.
        alphabet = Alphabet.of_size(3)
        window, cap = 16, 6
        codes = rng.integers(0, 3, size=100).astype(np.int64)
        miner = SlidingWindowMiner(alphabet, max_period=cap, window=window)
        miner.extend_codes(codes)
        batch = SpectralMiner(max_period=cap).periodicity_table(
            SymbolSequence.from_codes(codes[-window:], alphabet)
        )
        assert miner.table() == batch

    @pytest.mark.parametrize("window", [None, 3000])
    def test_block_split_internally_equals_batch(self, rng, window):
        # One extend_codes call longer than two ingestion blocks: the
        # miner sweeps it in INGEST_BLOCK pieces, and the window also
        # evicts across those piece boundaries.
        alphabet = Alphabet.of_size(4)
        cap = 40
        codes = rng.integers(0, 4, size=2 * INGEST_BLOCK + 37).astype(np.int64)
        miner = SlidingWindowMiner(alphabet, max_period=cap, window=window)
        miner.extend_codes(codes)
        scope = codes if window is None else codes[-window:]
        batch = SpectralMiner(max_period=cap).periodicity_table(
            SymbolSequence.from_codes(scope, alphabet)
        )
        assert miner.table() == batch
        assert miner.size == scope.size

    def test_confidence_reads_live_counts(self, rng):
        miner = SlidingWindowMiner(Alphabet.of_size(3), max_period=10, window=40)
        miner.extend_codes(rng.integers(0, 3, size=300).astype(np.int64))
        snapshot = miner.table()
        for period in (1, 3, 7, 10):
            assert miner.confidence(period) == pytest.approx(
                snapshot.confidence(period)
            )


class TestMonitorChunked:
    def _event_stream(self, rng):
        periodic = np.tile(np.array([0, 1, 2, 3]), 60)
        noise = rng.integers(0, 4, size=300)
        recovery = np.tile(np.array([0, 1, 2, 3]), 40)
        return np.concatenate([periodic, noise, recovery]).astype(np.int64)

    def _monitor(self):
        return PeriodicityMonitor(
            Alphabet.of_size(4), period=4, window=40, floor=0.6, patience=2
        )

    @settings(max_examples=15, deadline=None)
    @given(sizes=st.lists(st.integers(1, 97), min_size=1, max_size=30))
    def test_same_events_under_any_chunking(self, sizes):
        rng = np.random.default_rng(2004)
        codes = self._event_stream(rng)
        per_symbol = self._monitor()
        expected = [per_symbol.append_code(int(c)) for c in codes]
        expected = [e for e in expected if e is not None]
        chunked = self._monitor()
        fired = []
        for chunk in _chunks(codes, sizes):
            fired.extend(chunked.extend_codes(chunk))
        assert fired == expected
        assert chunked.events == per_symbol.events
        assert chunked.alarmed == per_symbol.alarmed

    def test_one_big_chunk_fires_identically(self, rng):
        codes = self._event_stream(rng)
        per_symbol = self._monitor()
        for code in codes:
            per_symbol.append_code(int(code))
        chunked = self._monitor()
        chunked.extend_codes(codes)
        assert chunked.events == per_symbol.events


class TestReaderFeedInto:
    def test_feeds_online_miner(self, rng):
        codes = rng.integers(0, 4, size=250).astype(np.int64)
        alphabet = Alphabet.of_size(4)
        series = SymbolSequence.from_codes(codes, alphabet)
        reader = ChunkedReader(series, block_size=37)
        miner = SlidingWindowMiner(alphabet, max_period=20)
        fed = reader.feed_into(miner)
        assert fed == 250
        direct = SlidingWindowMiner(alphabet, max_period=20)
        direct.extend_codes(codes)
        assert miner.table() == direct.table()

    def test_feeds_monitor(self, rng):
        codes = np.tile(np.array([0, 1, 2, 3]), 50).astype(np.int64)
        alphabet = Alphabet.of_size(4)
        series = SymbolSequence.from_codes(codes, alphabet)
        monitor = PeriodicityMonitor(alphabet, period=4, window=40)
        ChunkedReader(series, block_size=64).feed_into(monitor)
        assert monitor.confidence == pytest.approx(1.0)


class TestDenseCountStore:
    def test_layout_helpers_validate(self):
        with pytest.raises(ValueError):
            dense_offsets(0, 5)
        with pytest.raises(ValueError):
            dense_size(3, 0)

    def test_layout_shape(self):
        offsets = dense_offsets(3, 4)
        assert offsets.tolist() == [0, 0, 3, 9, 18]
        assert dense_size(3, 4) == 30

    def test_from_dense_rejects_wrong_shape(self):
        alphabet = Alphabet.of_size(3)
        with pytest.raises(ValueError):
            PeriodicityTable.from_dense(
                10, alphabet, np.zeros(7, dtype=np.int64), max_period=4
            )

    def test_from_dense_round_trip(self, rng):
        sigma, cap, n = 4, 9, 120
        alphabet = Alphabet.of_size(sigma)
        codes = rng.integers(0, sigma, size=n).astype(np.int64)
        miner = SlidingWindowMiner(alphabet, max_period=cap)
        miner.extend_codes(codes)
        table = miner.table()
        # Rebuild the dense array from the table and convert back.
        offsets = dense_offsets(sigma, cap)
        dense = np.zeros(dense_size(sigma, cap), dtype=np.int64)
        for p in table.periods:
            for (code, position), value in table.counts_for(p).items():
                dense[int(offsets[p]) + code * p + position] = value
        assert PeriodicityTable.from_dense(n, alphabet, dense, cap) == table

    def test_eviction_below_zero_raises(self):
        store = DenseCountStore(2, 3)
        keys = np.array([0], dtype=np.int64)
        with pytest.raises(AssertionError):
            store.subtract(keys)
